//===- analysis/Liveness.h - Phi-aware liveness ------------------*- C++ -*-===//
///
/// \file
/// Backward data-flow liveness with the phi convention Section 3.1 of the
/// paper depends on: a value feeding a phi in block b is *not* in b's live-in
/// set — it is live out of the predecessor it flows from. Only values with a
/// direct (non-phi) use in b or below appear in live-in(b). Phi results are
/// defined at the top of their block.
///
/// Two analyses share one dense fixed point:
///
///   - Liveness answers "is v live-in / live-out of b" over every name of a
///     function, dense or (on SSA code) by the sparse per-variable walk of
///     SparseLiveness.cpp;
///   - UpwardExposedLiveness answers the same over code with any number of
///     definitions per name, solving only the names that can be live
///     anywhere.
///
/// Storage follows what is live. Block-major sets (one flat buffer of
/// 2 * blocks * words-per-set words) serve the dense solver and every sparse
/// solve that fits in DenseLayoutMaxBytes; above that the sparse solver
/// stores each name's bits over the reverse-postorder span of the blocks
/// where it is live, so memory grows with the live ranges, not with
/// blocks * names. Either way a query is a bit test.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_ANALYSIS_LIVENESS_H
#define FCC_ANALYSIS_LIVENESS_H

#include "support/IndexSet.h"
#include <cstdint>
#include <vector>

namespace fcc {

class BasicBlock;
class Function;
class Variable;

/// Which algorithm populates the sets. Both produce identical live sets;
/// the choice is observable in solve time and, above the dense layout's
/// cut-over, in bytes().
enum class LivenessAlgorithm : unsigned char {
  /// Backward iterative data flow to a fixed point. Handles any input,
  /// including multi-definition non-SSA code (the Briggs webs and the
  /// post-rewrite allocation checks need exactly that).
  Dense,
  /// Per-variable def-use walks (analysis/SparseLiveness.cpp): from every
  /// use, mark live-out bits walking predecessors until the defining block.
  /// Requires strict single-definition (SSA) input — a checked
  /// precondition; construction throws std::invalid_argument otherwise.
  Sparse,
};

/// Block-boundary liveness sets over a function's variables.
class Liveness {
public:
  /// The largest block-major footprint (both sets, every block) the sparse
  /// solver writes; a larger function gets the span layout. DESIGN.md §11
  /// gives the per-unit sizes this cut-over separates.
  static constexpr size_t DenseLayoutMaxBytes = size_t(4) << 20;

  explicit Liveness(const Function &F,
                    LivenessAlgorithm Algo = LivenessAlgorithm::Dense);

  bool isLiveIn(const BasicBlock *B, const Variable *V) const;
  bool isLiveOut(const BasicBlock *B, const Variable *V) const;

  /// Owning copies of \p B's sets over the variables that existed at
  /// construction. On the span layout each costs one query per variable.
  IndexSet liveIn(const BasicBlock *B) const;
  IndexSet liveOut(const BasicBlock *B) const;

  /// True when the sets are stored per name over reverse-postorder spans.
  bool hasSpanLayout() const { return !RpoNumber.empty(); }

  /// Bytes held by the live sets (for the memory experiments): the words,
  /// plus the span headers and the block numbering on the span layout.
  /// Committed size, not capacity: the buffers are sized exactly, and
  /// capacity would overstate the footprint on libraries that round
  /// allocations up.
  size_t bytes() const {
    return Words.size() * sizeof(uint64_t) + Spans.size() * sizeof(Span) +
           RpoNumber.size() * sizeof(uint32_t);
  }

private:
  /// One name's sets on the span layout: for the blocks numbered
  /// [First, First + Length) in reverse postorder, word k of its live-in
  /// bits sits at Words[Offset + 2k] and of its live-out bits right after.
  /// Length 0 means live nowhere.
  struct Span {
    uint32_t First = 0;
    uint32_t Length = 0;
    uint64_t Offset = 0;
  };

  void solveDense(const Function &F);
  // Defined in SparseLiveness.cpp.
  void solveSparse(const Function &F);
  void solveSpans(const Function &F, const std::vector<unsigned> &DefBlock);

  /// Side 0 asks live-in, side 1 live-out.
  bool test(unsigned BlockId, unsigned VarId, unsigned Side) const;
  IndexSet collect(unsigned BlockId, unsigned Side) const;

  uint64_t *inWords(unsigned BlockId) {
    return Words.data() + size_t(BlockId) * WordsPerSet;
  }
  uint64_t *outWords(unsigned BlockId) {
    return Words.data() + size_t(NumBlocks + BlockId) * WordsPerSet;
  }
  const uint64_t *inWords(unsigned BlockId) const {
    return Words.data() + size_t(BlockId) * WordsPerSet;
  }
  const uint64_t *outWords(unsigned BlockId) const {
    return Words.data() + size_t(NumBlocks + BlockId) * WordsPerSet;
  }

  unsigned NumBlocks = 0;
  unsigned NumVars = 0;
  size_t WordsPerSet = 0;
  /// Block-major layout: live-in sets for all blocks, then live-out sets
  /// for all blocks. Span layout: every name's span words, back to back.
  std::vector<uint64_t> Words;
  /// Span layout only: per variable id, and per block id its number in
  /// reverse postorder.
  std::vector<Span> Spans;
  std::vector<uint32_t> RpoNumber;
};

/// Block-boundary sets of code whose names may be defined any number of
/// times — pre-SSA code, or phi-free code after SSA destruction and spill
/// rewriting — over only the names that can be live somewhere: those with
/// an upward-exposed use in some block or a phi operand. Any other name is
/// live into and out of no block, so the dense fixed point over this
/// compact universe answers "is v live into / out of b" exactly. A
/// function of at most 64 names keeps them all: its sets are one word
/// either way. It serves the strictness check (the live-in set of the
/// entry), pruned phi placement, and the register allocator and its spill
/// rewriter, where spill-everywhere leaves few names crossing blocks.
class UpwardExposedLiveness {
public:
  explicit UpwardExposedLiveness(const Function &F);

  /// The names the sets cover, numbered by slot in increasing id order.
  unsigned numSlots() const { return NumSlots; }
  unsigned nameOf(unsigned Slot) const {
    return Names.empty() ? Slot : Names[Slot];
  }

  /// True when the name in \p Slot is live into \p B.
  bool isLiveIn(const BasicBlock *B, unsigned Slot) const {
    assert(Slot < NumSlots && "not a solved name");
    return (liveIn(B)[Slot / 64] >> (Slot % 64)) & 1;
  }

  /// True when \p V is live into \p B. A name without a slot, including
  /// one created after the solve, is live nowhere.
  bool isLiveIn(const BasicBlock *B, const Variable *V) const;

  /// Invokes \p Fn with the id of every variable live into \p B, in
  /// increasing id order.
  template <typename CallableT>
  void forEachLiveIn(const BasicBlock *B, CallableT Fn) const {
    forEachName(liveIn(B), Fn);
  }

  /// Invokes \p Fn with the id of every variable live out of \p B, in
  /// increasing id order.
  template <typename CallableT>
  void forEachLiveOut(const BasicBlock *B, CallableT Fn) const {
    forEachName(liveOut(B), Fn);
  }

  /// The sets plus the index map (none when slots are ids).
  size_t bytes() const {
    return Words.size() * sizeof(uint64_t) + Names.size() * sizeof(unsigned);
  }

private:
  const uint64_t *liveIn(const BasicBlock *B) const;
  const uint64_t *liveOut(const BasicBlock *B) const;

  template <typename CallableT>
  void forEachName(const uint64_t *Set, CallableT Fn) const {
    for (size_t W = 0; W != WordsPerSet; ++W)
      for (uint64_t Bits = Set[W]; Bits; Bits &= Bits - 1)
        Fn(nameOf(W * 64 + static_cast<unsigned>(__builtin_ctzll(Bits))));
  }

  unsigned NumSlots = 0;
  size_t WordsPerSet = 0;
  /// Per slot, the name's id; empty when slots are ids.
  std::vector<unsigned> Names;
  /// Live-in sets for all blocks, then live-out sets for all blocks.
  std::vector<uint64_t> Words;
};

} // namespace fcc

#endif // FCC_ANALYSIS_LIVENESS_H
