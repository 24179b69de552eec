//===- opt/ADCE.cpp -------------------------------------------------------===//

#include "opt/ADCE.h"

#include "opt/PassManager.h"

#include "analysis/DominanceFrontier.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <cassert>
#include <optional>
#include <vector>

using namespace fcc;

ADCEStats fcc::runADCE(Function &F) {
  ADCEStats Stats;
  const unsigned N = F.numBlocks();

  // Immediate postdominators, null standing for the virtual exit. An
  // unreturning region has none, and forbids branch surgery (it could
  // accidentally restore termination); fall back to keeping every
  // terminator live.
  std::vector<BasicBlock *> IPdom;
  const bool CanRetarget = computePostDominators(F, IPdom);

  // Reverse dominance frontiers: the branches each block is
  // control-dependent on.
  std::optional<DominanceFrontier> RDF;
  if (CanRetarget)
    RDF.emplace(F, IPdom);

  // Defining instruction of each variable (parameters have none).
  std::vector<Instruction *> DefOf(F.numVariables(), nullptr);
  for (const auto &B : F.blocks()) {
    for (const auto &Phi : B->phis())
      DefOf[Phi->getDef()->id()] = Phi;
    for (const auto &I : B->insts())
      if (I->getDef())
        DefOf[I->getDef()->id()] = I;
  }

  // Live-marking fixpoint. A mark is one byte: per defined name (one
  // definition each in SSA), and per block for its terminator. Stores and
  // spills, the only instructions with neither role, are roots, so they
  // count as always live.
  std::vector<unsigned char> DefLive(F.numVariables(), 0), TermLive(N, 0);
  auto MarkOf = [&](const Instruction &I) -> unsigned char * {
    if (const Variable *Def = I.getDef())
      return &DefLive[Def->id()];
    if (I.isTerminator())
      return &TermLive[I.getParent()->id()];
    return nullptr;
  };
  auto IsLive = [&](const Instruction &I) {
    const unsigned char *Mark = MarkOf(I);
    return !Mark || *Mark;
  };
  std::vector<Instruction *> Worklist;
  std::vector<unsigned char> BlockHasLive(N, 0);
  auto MarkLive = [&](Instruction *I) {
    if (unsigned char *Mark = MarkOf(*I)) {
      if (*Mark)
        return;
      *Mark = 1;
    }
    Worklist.push_back(I);
  };
  for (const auto &B : F.blocks())
    for (const auto &I : B->insts())
      switch (I->opcode()) {
      case Opcode::Ret:
      case Opcode::Store:
      case Opcode::Spill:
        MarkLive(I);
        break;
      // Br and CondBr are NOT roots (when retargeting is allowed): a
      // block whose only content is its terminator must count as dead, or
      // every branch would be control-dependent-live through its arms and
      // the retargeting step below could never fire. The instruction
      // sweep never deletes terminators, so unrooted branches survive
      // unless retargeting bypasses them.
      case Opcode::Br:
      case Opcode::CondBr:
        if (!CanRetarget)
          MarkLive(I);
        break;
      default:
        break;
      }
  while (!Worklist.empty()) {
    Instruction *I = Worklist.back();
    Worklist.pop_back();
    BasicBlock *B = I->getParent();
    if (!BlockHasLive[B->id()]) {
      BlockHasLive[B->id()] = 1;
      if (RDF)
        for (const BasicBlock *X : RDF->frontier(B))
          MarkLive(X->terminator());
    }
    I->forEachUsedVar([&](Variable *V) {
      if (Instruction *Def = DefOf[V->id()])
        MarkLive(Def);
    });
    if (I->isPhi())
      for (BasicBlock *P : B->preds())
        MarkLive(P->terminator());
  }

  // Delete the dead phis and dead non-terminator instructions.
  for (const auto &B : F.blocks()) {
    Stats.PhisRemoved += B->erasePhisIf(
        [&](const Instruction &Phi) { return !IsLive(Phi); });
    Stats.InstsRemoved += B->eraseInstsIf([&](const Instruction &I) {
      return !I.isTerminator() && !IsLive(I);
    });
  }

  // Retarget each dead conditional branch at the nearest postdominator
  // holding anything live; everything bypassed is dead by the fixpoint
  // (a live instruction there would have marked this branch live through
  // its reverse dominance frontier).
  if (CanRetarget) {
    for (const auto &B : F.blocks()) {
      Instruction *Term = B->terminator();
      if (Term->opcode() != Opcode::CondBr || TermLive[B->id()])
        continue;
      BasicBlock *R = IPdom[B->id()];
      while (R && !BlockHasLive[R->id()])
        R = IPdom[R->id()];
      if (!R)
        continue; // No live postdominator; leave the branch alone.
      BasicBlock *Succ0 = Term->getSuccessor(0);
      BasicBlock *Succ1 = Term->getSuccessor(1);
      if (Succ0 == Succ1) {
        // Parallel edges; any phi distinguishing them would have kept this
        // branch live, so collapsing to one edge is safe.
        Succ0->removePredEdge(B.get());
        R = Succ0;
      } else if (R == Succ0 || R == Succ1) {
        (R == Succ0 ? Succ1 : Succ0)->removePredEdge(B.get());
      } else {
        if (!R->phis().empty())
          continue; // A new edge cannot invent phi operands; keep the branch.
        Succ0->removePredEdge(B.get());
        Succ1->removePredEdge(B.get());
        F.addPredEdge(R, B.get());
      }
      B->eraseInst(Term);
      B->append(F.makeInstruction(Opcode::Br, nullptr, {}, {R}));
      ++Stats.BranchesFolded;
    }
    if (Stats.BranchesFolded) {
      Stats.BlocksRemoved = F.removeUnreachableBlocks();
      demoteSinglePredPhis(F);
    }
  }
  return Stats;
}
