//===- regalloc/SpillRewriter.cpp -----------------------------------------===//

#include "regalloc/SpillRewriter.h"

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

using namespace fcc;

namespace {

/// Fresh `stN` temporaries and `spbN` edge blocks whose names cannot
/// collide with existing ones, so the rewritten function still round-trips
/// through the textual printer/parser. The input's candidate names are
/// collected once, at the first request; generated names count upward, so
/// they never collide with each other.
class FreshNames {
public:
  explicit FreshNames(Function &F) : F(F) {}

  Variable *temp() { return F.makeVariable(next("st", NextTemp, TakenVars)); }
  BasicBlock *block() {
    return F.makeBlock(next("spb", NextBlock, TakenBlocks));
  }

private:
  using NameSet = std::unordered_set<std::string_view>;

  std::string next(const char *Prefix, unsigned &Counter,
                   const NameSet &Taken) {
    if (!Collected) {
      Collected = true;
      for (const auto &V : F.variables())
        if (V->name().starts_with("st"))
          TakenVars.insert(V->name());
      for (const auto &B : F.blocks())
        if (B->name().starts_with("spb"))
          TakenBlocks.insert(B->name());
    }
    for (;;) {
      std::string Name = Prefix + std::to_string(Counter++);
      if (!Taken.count(Name))
        return Name;
    }
  }

  Function &F;
  bool Collected = false;
  unsigned NextTemp = 0;
  unsigned NextBlock = 0;
  NameSet TakenVars;
  NameSet TakenBlocks;
};

Instruction *makeSpill(Function &F, Variable *V, unsigned Slot) {
#ifdef FCC_FUZZ_PLANT_SPILL_BUG
  // Planted bug for the fuzzer acceptance test: every victim shares slot 0,
  // so two simultaneously-spilled values clobber each other.
  Slot = 0;
#endif
  return F.makeInstruction(
      Opcode::Spill, nullptr,
      {Operand::var(V), Operand::imm(static_cast<int64_t>(Slot))});
}

Instruction *makeReload(Function &F, Variable *Def, unsigned Slot) {
#ifdef FCC_FUZZ_PLANT_SPILL_BUG
  Slot = 0;
#endif
  return F.makeInstruction(Opcode::Reload, Def,
                           {Operand::imm(static_cast<int64_t>(Slot))});
}

void markFlag(std::vector<bool> &Flags, unsigned Id) {
  if (Flags.size() <= Id)
    Flags.resize(Id + 1, false);
  Flags[Id] = true;
}

/// The function's loop nest, built once per insertSpillCode call and kept
/// current as splits add edge blocks. An edge block E on From->To joins
/// exactly the loops that contain both From and To; no block becomes or
/// stops being a header. E has the largest block id so far, so appending
/// it keeps every loop's block list sorted by id.
struct LoopNest {
  std::vector<Loop> Loops;
  /// Indices into Loops of the loops containing each block, ascending.
  std::vector<std::vector<unsigned>> LoopsOf;
  /// Loop-nesting depth per block id (the spill-cost weights).
  std::vector<unsigned> Depth;

  explicit LoopNest(const Function &F)
      : Loops(LoopInfo(DominatorTree(F)).loops()), LoopsOf(F.numBlocks()) {
    for (unsigned L = 0; L != Loops.size(); ++L)
      for (const BasicBlock *B : Loops[L].Blocks)
        LoopsOf[B->id()].push_back(L);
    for (const std::vector<unsigned> &Of : LoopsOf)
      Depth.push_back(static_cast<unsigned>(Of.size()));
  }

  void addEdgeBlock(BasicBlock *E, const BasicBlock *From,
                    const BasicBlock *To) {
    assert(E->id() == LoopsOf.size() && "edge block is not the newest");
    std::vector<unsigned> Of;
    for (unsigned L : LoopsOf[From->id()])
      if (std::ranges::binary_search(LoopsOf[To->id()], L)) {
        Loops[L].Blocks.push_back(E);
        Of.push_back(L);
      }
    Depth.push_back(static_cast<unsigned>(Of.size()));
    LoopsOf.push_back(std::move(Of));
  }
};

/// One round's liveness solve over the names that cross a block boundary,
/// also answering for the edge blocks split in since. Rewriting a victim
/// changes only that victim's liveness, and a round's victims are
/// distinct, so each victim's queries see it as solved. An edge block on
/// From->To references only its own victim, so for every other name it is
/// live-in exactly where To is.
class RoundLiveness {
public:
  explicit RoundLiveness(const Function &F)
      : F(F), LV(F), NumSolved(F.numBlocks()) {}

  const UpwardExposedLiveness &solved() const { return LV; }

  bool isLiveIn(const BasicBlock *B, const Variable *V) const {
    return LV.isLiveIn(F.block(solvedAs(B)), V);
  }

  void addEdgeBlock(const BasicBlock *E, const BasicBlock *To) {
    assert(E->id() == NumSolved + SameAs.size() && "edge block out of order");
    SameAs.push_back(solvedAs(To));
  }

private:
  unsigned solvedAs(const BasicBlock *B) const {
    return B->id() < NumSolved ? B->id() : SameAs[B->id() - NumSolved];
  }

  const Function &F;
  UpwardExposedLiveness LV;
  unsigned NumSolved;
  /// Solved block standing in for each edge block, by id - NumSolved.
  std::vector<unsigned> SameAs;
};

/// The state of one insertSpillCode call.
class SpillRewriter {
public:
  SpillRewriter(Function &F, const SpillRewriteOptions &Opts)
      : F(F), Opts(Opts), Names(F), Nest(F) {
    AllocOpts.Machine = Opts.Machine;
    AllocOpts.InfiniteCost = &NoSpill;
    AllocOpts.StackResident = &StackResident;
  }

  SpillRewriteResult run();

private:
  void rewriteVictims(RoundLiveness &Live);
  bool trySplitAroundLoop(Variable *V, unsigned Slot,
                          const std::vector<Instruction *> &Refs,
                          RoundLiveness &Live);
  void spillEverywhere(Variable *V, unsigned Slot,
                       const std::vector<Instruction *> &Refs);

  Function &F;
  const SpillRewriteOptions &Opts;
  RegAllocOptions AllocOpts;
  SpillRewriteResult R;
  FreshNames Names;
  LoopNest Nest;
  unsigned NextSlot = 0;
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
};

/// Spill-everywhere rewrite of one victim: reload into a fresh temporary
/// before every use, store from a fresh temporary after every def, one
/// entry store for parameters. After this the victim itself is referenced
/// only by the parameter store (or not at all). Every fresh temporary is
/// flagged in NoSpill — its range is already minimal, so the allocator
/// must never pick it over a long range (see RegAllocOptions). \p Refs
/// lists the instructions referencing the victim in block and body order;
/// each of their blocks is rewritten in one pass.
void SpillRewriter::spillEverywhere(Variable *V, unsigned Slot,
                                    const std::vector<Instruction *> &Refs) {
  for (auto Next = Refs.begin(); Next != Refs.end();)
    (*Next)->getParent()->insertAround([&](Instruction &I,
                                           BasicBlock::InstList &Before,
                                           BasicBlock::InstList &After) {
      if (Next == Refs.end() || &I != *Next)
        return;
      ++Next;
      if (I.uses(V)) {
        Variable *T = Names.temp();
        markFlag(NoSpill, T->id());
        Before.push_back(makeReload(F, T, Slot));
        I.forEachUse([&](Operand &O) {
          if (O.getVar() == V)
            O = Operand::var(T);
        });
        ++R.Reloads;
      }
      if (I.getDef() == V) {
        Variable *T = Names.temp();
        markFlag(NoSpill, T->id());
        I.setDef(T);
        After.push_back(makeSpill(F, T, Slot));
        ++R.SpillStores;
      }
    });
  if (F.isParam(V)) {
    // Parameters are defined on entry; their slot is written once there.
    F.entry()->insertAt(0, makeSpill(F, V, Slot));
    ++R.SpillStores;
  }
}

/// Live-range splitting: when the victim crosses a loop without any use or
/// def inside it, store it on the loop-entry edges and reload it on the
/// exit edges where it is still live. Returns false when no such loop
/// exists (caller falls back to spill-everywhere). \p Refs lists the
/// instructions referencing the victim.
bool SpillRewriter::trySplitAroundLoop(Variable *V, unsigned Slot,
                                       const std::vector<Instruction *> &Refs,
                                       RoundLiveness &Live) {
  std::vector<bool> Referenced(Nest.Loops.size(), false);
  for (const Instruction *I : Refs)
    for (unsigned L : Nest.LoopsOf[I->getParent()->id()])
      Referenced[L] = true;

  const Loop *Best = nullptr;
  for (unsigned L = 0; L != Nest.Loops.size(); ++L) {
    const Loop &Candidate = Nest.Loops[L];
    if (Candidate.Header == F.entry())
      continue; // No entry edge exists to hold the store.
    if (Referenced[L] || !Live.isLiveIn(Candidate.Header, V))
      continue;
    // Prefer the largest qualifying region (ties: lowest header id) — it
    // removes the most interference per split.
    if (!Best || Candidate.Blocks.size() > Best->Blocks.size() ||
        (Candidate.Blocks.size() == Best->Blocks.size() &&
         Candidate.Header->id() < Best->Header->id()))
      Best = &Candidate;
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
      if (!InLoop[S->id()] && Live.isLiveIn(S, V))
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
      P->insertBeforeTerminator(makeSpill(F, V, Slot));
      ++R.SpillStores;
    }

  // Reload on a dedicated block per exit edge. Landing the reload in the
  // successor itself would be wrong when the successor is also reachable
  // around the loop — that path never wrote the slot.
  for (const ExitEdge &Edge : Exits) {
    BasicBlock *E = Names.block();
    E->append(makeReload(F, V, Slot));
    E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {Edge.To}));
    Edge.From->terminator()->setSuccessor(Edge.SuccIdx, E);
    Edge.To->replacePred(Edge.From, E);
    F.addPredEdge(E, Edge.From);
    Nest.addEdgeBlock(E, Edge.From, Edge.To);
    Live.addEdgeBlock(E, Edge.To);
    ++R.Reloads;
  }
  ++R.RangesSplit;
  return true;
}

/// Rewrites this round's victims in select order, each with a fresh slot.
void SpillRewriter::rewriteVictims(RoundLiveness &Live) {
  const std::vector<const Variable *> &Victims = R.Alloc.Spilled;
  // The instructions referencing each victim, in block and body order,
  // from one walk. Rewriting one victim never adds or removes references to
  // another, and rewriting a block keeps its instructions' identity.
  std::vector<unsigned> VictimIndex(F.numVariables(), ~0u);
  for (unsigned I = 0; I != Victims.size(); ++I)
    VictimIndex[Victims[I]->id()] = I;
  std::vector<std::vector<Instruction *>> Refs(Victims.size());
  for (const auto &B : F.blocks())
    for (const auto &I : B->insts()) {
      auto Note = [&](const Variable *V) {
        unsigned Idx = VictimIndex[V->id()];
        if (Idx != ~0u && (Refs[Idx].empty() || Refs[Idx].back() != I))
          Refs[Idx].push_back(I);
      };
      I->forEachUsedVar(Note);
      if (Variable *Def = I->getDef())
        Note(Def);
    }

  if (SplitTried.size() < F.numVariables())
    SplitTried.resize(F.numVariables(), false);
  for (unsigned I = 0; I != Victims.size(); ++I) {
    Variable *V = const_cast<Variable *>(Victims[I]);
    unsigned Slot = NextSlot++;
    R.SlotsUsed = NextSlot;
    if (Opts.SplitLiveRanges && !SplitTried[V->id()]) {
      SplitTried[V->id()] = true;
      if (trySplitAroundLoop(V, Slot, Refs[I], Live))
        continue;
    }
    spillEverywhere(V, Slot, Refs[I]);
    if (F.isParam(V))
      markFlag(StackResident, V->id());
    else
      markFlag(NoSpill, V->id());
  }
}

SpillRewriteResult SpillRewriter::run() {
  for (unsigned Iter = 1; Iter <= Opts.MaxIterations; ++Iter) {
    RoundLiveness Live(F);
    R.Alloc = allocateRegisters(F, AllocOpts, Live.solved(), Nest.Depth);
    R.Iterations = Iter;
    if (R.Alloc.Spilled.empty())
      return R;
    rewriteVictims(Live);
  }
  throw std::runtime_error(
      "spill rewriting did not converge within " +
      std::to_string(Opts.MaxIterations) + " iterations on function '" +
      F.name() + "' (machine " + Opts.Machine.Name + ")");
}

} // namespace

SpillRewriteResult fcc::insertSpillCode(Function &F,
                                        const SpillRewriteOptions &Opts) {
  assert(F.phiCount() == 0 && "spill rewriting runs after SSA destruction");
  assert(!Opts.Machine.Classes.empty() && "machine model has no classes");
  return SpillRewriter(F, Opts).run();
}
