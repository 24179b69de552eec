//===- analysis/Liveness.cpp ----------------------------------------------===//

#include "analysis/Liveness.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"

#include <algorithm>

using namespace fcc;

namespace {

/// Word-span helpers for the flat set storage. All spans have the same
/// width; the callers guarantee it.
inline void setBit(uint64_t *W, unsigned Id) {
  W[Id / 64] |= uint64_t(1) << (Id % 64);
}
inline bool testBit(const uint64_t *W, unsigned Id) {
  return (W[Id / 64] >> (Id % 64)) & 1;
}
inline bool orInto(uint64_t *Dst, const uint64_t *Src, size_t NumWords) {
  bool Changed = false;
  for (size_t I = 0; I != NumWords; ++I) {
    uint64_t New = Dst[I] | Src[I];
    Changed |= New != Dst[I];
    Dst[I] = New;
  }
  return Changed;
}

constexpr unsigned NotSolved = ~0u;

/// The data-flow equations of one dense solve: per block, the
/// upward-exposed uses (direct uses only; phi operands belong to edges),
/// the definitions (including phi results), and the variables feeding
/// successor phis along its out-edges, which are live out of it. They
/// share one flat buffer, with the solver's scratch set, freed with the
/// object.
class DenseEquations {
public:
  DenseEquations(size_t NumBlocks, size_t WordsPerSet)
      : NumBlocks(NumBlocks), WordsPerSet(WordsPerSet),
        Sets((3 * NumBlocks + 1) * WordsPerSet, 0) {}

  uint64_t *ueVar(unsigned B) { return set(B); }
  uint64_t *defs(unsigned B) { return set(NumBlocks + B); }
  uint64_t *phiUse(unsigned B) { return set(2 * NumBlocks + B); }

  /// Round-robin to a fixed point, iterating blocks in reverse id order as
  /// a cheap approximation of postorder (converges regardless of order).
  /// Writes every block's live-in set, then every block's live-out set,
  /// into \p Out (2 * blocks * WordsPerSet zeroed words). Allocation-free:
  /// every set is a span of the two flat buffers.
  void solve(const Function &F, uint64_t *Out) {
    // Locals, not members: the sets' words would alias them.
    const size_t Width = WordsPerSet, Blocks = NumBlocks;
    uint64_t *In = Out, *OutSets = Out + Blocks * Width;
    const uint64_t *UE = set(0), *Defs = set(Blocks), *Phi = set(2 * Blocks);
    uint64_t *Scratch = set(3 * Blocks);
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (size_t Idx = Blocks; Idx-- != 0;) {
        const BasicBlock *B = F.block(static_cast<unsigned>(Idx));
        std::copy_n(Phi + Idx * Width, Width, Scratch);
        for (const BasicBlock *S : B->terminator()->successors())
          orInto(Scratch, In + S->id() * Width, Width);
        Changed |= orInto(OutSets + Idx * Width, Scratch, Width);

        for (size_t W = 0; W != Width; ++W)
          Scratch[W] &= ~Defs[Idx * Width + W];
        orInto(Scratch, UE + Idx * Width, Width);
        Changed |= orInto(In + Idx * Width, Scratch, Width);
      }
    }
  }

private:
  uint64_t *set(size_t Index) { return Sets.data() + Index * WordsPerSet; }

  size_t NumBlocks, WordsPerSet;
  std::vector<uint64_t> Sets;
};

/// Fills \p Eq from the code with every name in the slot of its id.
void fillEveryName(const Function &F, DenseEquations &Eq) {
  for (const auto &B : F.blocks()) {
    uint64_t *UE = Eq.ueVar(B->id());
    uint64_t *Defs = Eq.defs(B->id());
    for (const auto &Phi : B->phis())
      setBit(Defs, Phi->getDef()->id());
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) {
        if (!testBit(Defs, V->id()))
          setBit(UE, V->id());
      });
      if (Variable *Def = I->getDef())
        setBit(Defs, Def->id());
    }
  }
  for (const auto &B : F.blocks())
    for (const auto &Phi : B->phis())
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
        const Operand &O = Phi->getOperand(Idx);
        if (O.isVar())
          setBit(Eq.phiUse(B->preds()[Idx]->id()), O.getVar()->id());
      }
}

/// Solves the equations \p Fill writes, over sets of \p WordsPerSet words:
/// every block's live-in set, then every block's live-out set.
template <typename FillFn>
std::vector<uint64_t> solveSets(const Function &F, size_t WordsPerSet,
                                FillFn Fill) {
  std::vector<uint64_t> Sets(2 * size_t(F.numBlocks()) * WordsPerSet, 0);
  DenseEquations Eq(F.numBlocks(), WordsPerSet);
  Fill(Eq);
  Eq.solve(F, Sets.data());
  return Sets;
}

} // namespace

Liveness::Liveness(const Function &F, LivenessAlgorithm Algo)
    : NumBlocks(F.numBlocks()), NumVars(F.numVariables()),
      WordsPerSet((size_t(NumVars) + 63) / 64) {
  if (Algo == LivenessAlgorithm::Sparse)
    solveSparse(F);
  else
    solveDense(F);
}

void Liveness::solveDense(const Function &F) {
  Words = solveSets(F, WordsPerSet,
                    [&](DenseEquations &Eq) { fillEveryName(F, Eq); });
}

bool Liveness::test(unsigned BlockId, unsigned VarId, unsigned Side) const {
  assert(BlockId < NumBlocks && "foreign block");
  if (VarId >= NumVars)
    return false; // Created after the solve.
  if (!hasSpanLayout())
    return testBit(Side ? outWords(BlockId) : inWords(BlockId), VarId);
  const Span &S = Spans[VarId];
  uint32_t R = RpoNumber[BlockId] - S.First; // Wraps below the span.
  return R < S.Length &&
         (Words[S.Offset + 2 * (R / 64) + Side] >> (R % 64)) & 1;
}

IndexSet Liveness::collect(unsigned BlockId, unsigned Side) const {
  assert(BlockId < NumBlocks && "foreign block");
  if (!hasSpanLayout())
    return IndexSet(Side ? outWords(BlockId) : inWords(BlockId), WordsPerSet);
  IndexSet Set(NumVars);
  for (unsigned Id = 0; Id != NumVars; ++Id)
    if (test(BlockId, Id, Side))
      Set.insert(Id);
  return Set;
}

bool Liveness::isLiveIn(const BasicBlock *B, const Variable *V) const {
  return test(B->id(), V->id(), 0);
}

bool Liveness::isLiveOut(const BasicBlock *B, const Variable *V) const {
  return test(B->id(), V->id(), 1);
}

IndexSet Liveness::liveIn(const BasicBlock *B) const {
  return collect(B->id(), 0);
}

IndexSet Liveness::liveOut(const BasicBlock *B) const {
  return collect(B->id(), 1);
}

UpwardExposedLiveness::UpwardExposedLiveness(const Function &F) {
  unsigned NumVars = F.numVariables();
  if (NumVars <= 64) {
    // Every set is one word whatever the universe, so there is nothing to
    // narrow: every name keeps its id as its slot, and one pass over the
    // code fills the equations.
    NumSlots = NumVars;
    WordsPerSet = NumVars ? 1 : 0;
    Words = solveSets(F, WordsPerSet,
                      [&](DenseEquations &Eq) { fillEveryName(F, Eq); });
    return;
  }

  // One pass records each block's equations as name lists in Refs: its
  // upward-exposed uses (id * 2) and its first definition of each name
  // (id * 2 + 1), closed by EndOfBlock; and the phi operands, in PhiRefs
  // as (predecessor, name). State[v] packs 1 + the id of the block whose
  // scan defined v last (above bit 0) with whether v is exposed (bit 0);
  // afterwards it holds v's slot.
  constexpr unsigned EndOfBlock = ~0u;
  std::vector<unsigned> State(NumVars, 0), Refs;
  std::vector<std::pair<unsigned, unsigned>> PhiRefs;
  Refs.reserve(4 * size_t(NumVars) + F.numBlocks());
  for (const auto &B : F.blocks()) {
    unsigned Stamp = (B->id() + 1) << 1;
    auto Define = [&](const Variable *V) {
      unsigned &S = State[V->id()];
      if ((S & ~1u) != Stamp)
        Refs.push_back(V->id() * 2 + 1);
      S = Stamp | (S & 1);
    };
    for (const auto &Phi : B->phis()) {
      Define(Phi->getDef());
      for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx)
        if (const Operand &O = Phi->getOperand(Idx); O.isVar()) {
          State[O.getVar()->id()] |= 1;
          PhiRefs.push_back({B->preds()[Idx]->id(), O.getVar()->id()});
        }
    }
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](const Variable *V) {
        unsigned &S = State[V->id()];
        if ((S & ~1u) != Stamp) {
          S |= 1;
          Refs.push_back(V->id() * 2);
        }
      });
      if (const Variable *Def = I->getDef())
        Define(Def);
    }
    Refs.push_back(EndOfBlock);
  }

  for (unsigned &S : State)
    S = S & 1 ? NumSlots++ : NotSolved;
  Names.reserve(NumSlots);
  for (unsigned Id = 0; Id != NumVars; ++Id)
    if (State[Id] != NotSolved)
      Names.push_back(Id);
  WordsPerSet = (size_t(NumSlots) + 63) / 64;
  Words = solveSets(F, WordsPerSet, [&](DenseEquations &Eq) {
    unsigned Block = 0;
    for (unsigned Ref : Refs) {
      if (Ref == EndOfBlock)
        ++Block;
      else if (unsigned Slot = State[Ref / 2]; Slot != NotSolved)
        setBit(Ref & 1 ? Eq.defs(Block) : Eq.ueVar(Block), Slot);
    }
    for (auto [Pred, Id] : PhiRefs)
      setBit(Eq.phiUse(Pred), State[Id]);
  });
}

bool UpwardExposedLiveness::isLiveIn(const BasicBlock *B,
                                     const Variable *V) const {
  unsigned Slot = V->id();
  if (!Names.empty()) {
    auto It = std::ranges::lower_bound(Names, Slot);
    if (It == Names.end() || *It != Slot)
      return false;
    Slot = static_cast<unsigned>(It - Names.begin());
  }
  return Slot < NumSlots && isLiveIn(B, Slot);
}

const uint64_t *UpwardExposedLiveness::liveIn(const BasicBlock *B) const {
  return Words.data() + size_t(B->id()) * WordsPerSet;
}

const uint64_t *UpwardExposedLiveness::liveOut(const BasicBlock *B) const {
  return liveIn(B) + Words.size() / 2;
}
