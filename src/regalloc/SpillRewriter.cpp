//===- regalloc/SpillRewriter.cpp -----------------------------------------===//

#include "regalloc/SpillRewriter.h"

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <stdexcept>
#include <string>
#include <vector>

using namespace fcc;

namespace {

/// Fresh variable whose name cannot collide with an existing one, so the
/// rewritten function still round-trips through the textual printer/parser.
Variable *freshTemp(Function &F, unsigned &Counter) {
  for (;;) {
    std::string Name = "st" + std::to_string(Counter++);
    if (!F.findVariable(Name))
      return F.makeVariable(Name);
  }
}

BasicBlock *freshBlock(Function &F, unsigned &Counter) {
  for (;;) {
    std::string Name = "spb" + std::to_string(Counter++);
    if (!F.findBlock(Name))
      return F.makeBlock(Name);
  }
}

std::unique_ptr<Instruction> makeSpill(Variable *V, unsigned Slot) {
#ifdef FCC_FUZZ_PLANT_SPILL_BUG
  // Planted bug for the fuzzer acceptance test: every victim shares slot 0,
  // so two simultaneously-spilled values clobber each other.
  Slot = 0;
#endif
  return std::make_unique<Instruction>(
      Opcode::Spill, nullptr,
      std::vector<Operand>{Operand::var(V),
                           Operand::imm(static_cast<int64_t>(Slot))});
}

std::unique_ptr<Instruction> makeReload(Variable *Def, unsigned Slot) {
#ifdef FCC_FUZZ_PLANT_SPILL_BUG
  Slot = 0;
#endif
  return std::make_unique<Instruction>(
      Opcode::Reload, Def,
      std::vector<Operand>{Operand::imm(static_cast<int64_t>(Slot))});
}

void markFlag(std::vector<bool> &Flags, unsigned Id) {
  if (Flags.size() <= Id)
    Flags.resize(Id + 1, false);
  Flags[Id] = true;
}

/// Spill-everywhere rewrite of one victim: reload into a fresh temporary
/// before every use, store from a fresh temporary after every def, one
/// entry store for parameters. After this the victim itself is referenced
/// only by the parameter store (or not at all). Every fresh temporary is
/// flagged in \p NoSpill — its range is already minimal, so the allocator
/// must never pick it over a long range (see RegAllocOptions).
void spillEverywhere(Function &F, Variable *V, unsigned Slot,
                     unsigned &TempCounter, std::vector<bool> &NoSpill,
                     SpillRewriteResult &R) {
  for (const auto &B : F.blocks()) {
    for (unsigned Idx = 0; Idx < B->insts().size(); ++Idx) {
      Instruction *I = B->insts()[Idx].get();
      if (I->uses(V)) {
        Variable *T = freshTemp(F, TempCounter);
        markFlag(NoSpill, T->id());
        B->insertAt(Idx, makeReload(T, Slot));
        ++Idx; // I moved one position down.
        I->forEachUse([&](Operand &O) {
          if (O.getVar() == V)
            O = Operand::var(T);
        });
        ++R.Reloads;
      }
      if (I->getDef() == V) {
        Variable *T = freshTemp(F, TempCounter);
        markFlag(NoSpill, T->id());
        I->setDef(T);
        B->insertAt(Idx + 1, makeSpill(T, Slot));
        ++Idx; // Skip the store we just inserted.
        ++R.SpillStores;
      }
    }
  }
  if (F.isParam(V)) {
    // Parameters are defined on entry; their slot is written once there.
    F.entry()->insertAt(0, makeSpill(V, Slot));
    ++R.SpillStores;
  }
}

/// Live-range splitting: when the victim crosses a loop without any use or
/// def inside it, store it on the loop-entry edges and reload it on the
/// exit edges where it is still live. Returns false when no such loop
/// exists (caller falls back to spill-everywhere).
bool trySplitAroundLoop(Function &F, Variable *V, unsigned Slot,
                        unsigned &BlockCounter, SpillRewriteResult &R) {
  // Fresh analyses every attempt: earlier victims in the same round may
  // already have rewritten the function.
  DominatorTree DT(F);
  LoopInfo LI(DT);
  Liveness LV(F, LivenessAlgorithm::Dense);

  const Loop *Best = nullptr;
  std::vector<bool> BestIn;
  for (const Loop &L : LI.loops()) {
    if (L.Header == F.entry())
      continue; // No entry edge exists to hold the store.
    if (!LV.isLiveIn(L.Header, V))
      continue;
    bool Referenced = false;
    for (const BasicBlock *B : L.Blocks) {
      for (const auto &I : B->insts())
        if (I->uses(V) || I->getDef() == V) {
          Referenced = true;
          break;
        }
      if (Referenced)
        break;
    }
    if (Referenced)
      continue;
    // Prefer the largest qualifying region (ties: lowest header id) — it
    // removes the most interference per split.
    if (!Best || L.Blocks.size() > Best->Blocks.size() ||
        (L.Blocks.size() == Best->Blocks.size() &&
         L.Header->id() < Best->Header->id()))
      Best = &L;
  }
  if (!Best)
    return false;

  std::vector<bool> InLoop(F.numBlocks(), false);
  for (const BasicBlock *B : Best->Blocks)
    InLoop[B->id()] = true;

  // Exit edges where the victim is still live. Collected before any
  // mutation: splitting inserts blocks, which would invalidate iteration.
  struct ExitEdge {
    BasicBlock *From;
    unsigned SuccIdx;
    BasicBlock *To;
  };
  std::vector<ExitEdge> Exits;
  for (BasicBlock *B : Best->Blocks) {
    Instruction *Term = B->terminator();
    for (unsigned SI = 0, E = Term->getNumSuccessors(); SI != E; ++SI) {
      BasicBlock *S = Term->getSuccessor(SI);
      if (!InLoop[S->id()] && LV.isLiveIn(S, V))
        Exits.push_back({B, SI, S});
    }
  }
  if (Exits.empty())
    return false;

  // Store on every entering edge (the predecessor is outside the loop, so
  // this executes once per loop entry, not per iteration). The victim is
  // defined on every path reaching these edges because it is live into the
  // header of a strict program.
  for (BasicBlock *P : Best->Header->preds())
    if (!InLoop[P->id()]) {
      P->insertBeforeTerminator(makeSpill(V, Slot));
      ++R.SpillStores;
    }

  // Reload on a dedicated block per exit edge. Landing the reload in the
  // successor itself would be wrong when the successor is also reachable
  // around the loop — that path never wrote the slot.
  for (const ExitEdge &Edge : Exits) {
    BasicBlock *E = freshBlock(F, BlockCounter);
    E->append(makeReload(V, Slot));
    E->append(std::make_unique<Instruction>(
        Opcode::Br, nullptr, std::vector<Operand>{},
        std::vector<BasicBlock *>{Edge.To}));
    Edge.From->terminator()->setSuccessor(Edge.SuccIdx, E);
    Edge.To->replacePred(Edge.From, E);
    F.addPredEdge(E, Edge.From);
    ++R.Reloads;
  }
  ++R.RangesSplit;
  return true;
}

} // namespace

SpillRewriteResult fcc::insertSpillCode(Function &F,
                                        const SpillRewriteOptions &Opts) {
  assert(F.phiCount() == 0 && "spill rewriting runs after SSA destruction");
  assert(!Opts.Machine.Classes.empty() && "machine model has no classes");
  RegAllocOptions AllocOpts;
  AllocOpts.Machine = Opts.Machine;

  SpillRewriteResult R;
  unsigned NextSlot = 0;
  unsigned TempCounter = 0;
  unsigned BlockCounter = 0;
  // Each variable gets at most one splitting attempt; a re-spilled victim
  // falls through to spill-everywhere, which removes it from contention
  // for good. This is what bounds the iteration count in practice.
  std::vector<bool> SplitTried;
  // Spill machinery the allocator must not pick as a victim again: fresh
  // reload/store temporaries and dissolved victims (their ranges are
  // already minimal).
  std::vector<bool> NoSpill;
  // Parameters dissolved by spill-everywhere become stack-passed: their
  // entry `spill` models the caller's argument store, so they leave the
  // coloring problem entirely (a function with more parameters than
  // registers could never color otherwise — the calling convention makes
  // parameters interfere pairwise).
  std::vector<bool> StackResident;
  AllocOpts.InfiniteCost = &NoSpill;
  AllocOpts.StackResident = &StackResident;

  for (unsigned Iter = 1; Iter <= Opts.MaxIterations; ++Iter) {
    R.Alloc = allocateRegisters(F, AllocOpts);
    R.Iterations = Iter;
    if (R.Alloc.Spilled.empty())
      return R;

    if (SplitTried.size() < F.numVariables())
      SplitTried.resize(F.numVariables(), false);
    for (const Variable *Victim : R.Alloc.Spilled) {
      Variable *V = const_cast<Variable *>(Victim);
      unsigned Slot = NextSlot++;
      R.SlotsUsed = NextSlot;
      if (Opts.SplitLiveRanges && !SplitTried[V->id()]) {
        SplitTried[V->id()] = true;
        if (trySplitAroundLoop(F, V, Slot, BlockCounter, R))
          continue;
      }
      spillEverywhere(F, V, Slot, TempCounter, NoSpill, R);
      if (F.isParam(V))
        markFlag(StackResident, V->id());
      else
        markFlag(NoSpill, V->id());
    }
  }
  throw std::runtime_error(
      "spill rewriting did not converge within " +
      std::to_string(Opts.MaxIterations) + " iterations on function '" +
      F.name() + "' (machine " + Opts.Machine.Name + ")");
}
