//===- analysis/DominanceFrontier.cpp -------------------------------------===//

#include "analysis/DominanceFrontier.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"

using namespace fcc;

namespace {

/// Puts \p Join in the frontier of every block on the tree path from
/// \p Runner up to, not including, \p Stop.
template <typename ParentFn>
void climb(std::vector<std::vector<BasicBlock *>> &Frontiers, BasicBlock *Join,
           BasicBlock *Runner, const BasicBlock *Stop, ParentFn Parent) {
  // Joins are walked one at a time in block-id order, so a list that already
  // ends with Join marks a block an earlier walk to Join climbed from; the
  // rest of the path is done. Hence every list comes out sorted and unique.
  for (; Runner != Stop; Runner = Parent(Runner)) {
    assert(Runner && "ran past the root while walking to the stop block");
    std::vector<BasicBlock *> &DF = Frontiers[Runner->id()];
    if (!DF.empty() && DF.back() == Join)
      return;
    DF.push_back(Join);
  }
}

} // namespace

DominanceFrontier::DominanceFrontier(const DominatorTree &DT) {
  const Function &F = DT.function();
  Frontiers.assign(F.numBlocks(), {});
  auto Idom = [&](const BasicBlock *B) { return DT.idom(B); };
  for (const auto &B : F.blocks())
    if (B->getNumPreds() >= 2)
      for (BasicBlock *P : B->preds())
        climb(Frontiers, B.get(), P, DT.idom(B.get()), Idom);
}

DominanceFrontier::DominanceFrontier(const Function &F,
                                     const std::vector<BasicBlock *> &IPdom) {
  Frontiers.assign(F.numBlocks(), {});
  auto Ipdom = [&](const BasicBlock *B) { return IPdom[B->id()]; };
  for (const auto &B : F.blocks())
    if (B->terminator()->getNumSuccessors() >= 2)
      for (BasicBlock *S : B->terminator()->successors())
        climb(Frontiers, B.get(), S, IPdom[B->id()], Ipdom);
}

const std::vector<BasicBlock *> &
DominanceFrontier::frontier(const BasicBlock *B) const {
  assert(B->id() < Frontiers.size() && "foreign block");
  return Frontiers[B->id()];
}

size_t DominanceFrontier::bytes() const {
  size_t Total = Frontiers.capacity() * sizeof(std::vector<BasicBlock *>);
  for (const auto &DF : Frontiers)
    Total += DF.capacity() * sizeof(BasicBlock *);
  return Total;
}
