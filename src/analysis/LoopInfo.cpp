//===- analysis/LoopInfo.cpp ----------------------------------------------===//

#include "analysis/LoopInfo.h"

#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"

#include <algorithm>

using namespace fcc;

LoopInfo::LoopInfo(const DominatorTree &DT) {
  const Function &F = DT.function();
  Depth.assign(F.numBlocks(), 0);

  // Headers in block-id order; a header's latches are its back-edge
  // predecessors, so back edges sharing a header yield one loop.
  std::vector<unsigned> Stamp(F.numBlocks(), 0);
  std::vector<BasicBlock *> Work;
  for (const auto &H : F.blocks()) {
    Work.clear();
    for (BasicBlock *P : H->preds())
      if (DT.dominates(H.get(), P))
        Work.push_back(P);
    if (Work.empty())
      continue;
    Loop L;
    L.Header = H.get();
    unsigned Generation = H->id() + 1;
    Stamp[H->id()] = Generation;
    L.Blocks.push_back(H.get());
    // Backward reachability from every latch, stopping at the header.
    while (!Work.empty()) {
      BasicBlock *B = Work.back();
      Work.pop_back();
      if (Stamp[B->id()] == Generation)
        continue;
      Stamp[B->id()] = Generation;
      L.Blocks.push_back(B);
      for (BasicBlock *P : B->preds())
        Work.push_back(P);
    }
    std::sort(L.Blocks.begin(), L.Blocks.end(),
              [](const BasicBlock *A, const BasicBlock *B) {
                return A->id() < B->id();
              });
    for (BasicBlock *B : L.Blocks)
      ++Depth[B->id()];
    Loops.push_back(std::move(L));
  }
}

unsigned LoopInfo::loopDepth(const BasicBlock *B) const {
  assert(B->id() < Depth.size() && "foreign block");
  return Depth[B->id()];
}
