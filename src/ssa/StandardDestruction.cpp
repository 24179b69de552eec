//===- ssa/StandardDestruction.cpp ----------------------------------------===//

#include "ssa/StandardDestruction.h"

#include "analysis/CFGUtils.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ssa/ParallelCopy.h"

using namespace fcc;

DestructionStats fcc::destroySSAStandard(Function &F) {
  assert(!hasCriticalEdges(F) &&
         "split critical edges before destroying SSA (lost-copy problem)");
  DestructionStats Stats;
  unsigned TempCounter = 0;

  // Waiting[b]: copies pending at the end of block b (Section 3's notation).
  std::vector<std::vector<CopyTask>> Waiting(F.numBlocks());

  for (const auto &B : F.blocks()) {
    for (const auto &Phi : B->phis())
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx)
        Waiting[B->preds()[Idx]->id()].push_back(
            {Phi->getDef(), Phi->getOperand(Idx)});
  }
  for (auto &Tasks : Waiting)
    Stats.PeakBytes += Tasks.capacity() * sizeof(CopyTask);

  for (unsigned Id = 0, E = F.numBlocks(); Id != E; ++Id) {
    if (Waiting[Id].empty())
      continue;
    BasicBlock *Pred = F.block(Id);
    SequencedCopies Seq = sequentializeParallelCopy(Waiting[Id], F,
                                                    TempCounter);
    Stats.CopiesInserted += static_cast<unsigned>(Seq.Insts.size());
    Stats.TempsUsed += Seq.TempsUsed;
    for (Instruction *I : Seq.Insts)
      Pred->insertBeforeTerminator(I);
  }

  for (const auto &B : F.blocks())
    B->erasePhisIf([](const Instruction &) { return true; });

  return Stats;
}
