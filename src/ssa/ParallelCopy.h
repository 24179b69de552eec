//===- ssa/ParallelCopy.h - Parallel copy sequentialization -----*- C++ -*-===//
///
/// \file
/// Orders a set of semantically parallel copies into a correct sequence of
/// Copy/Const instructions, inserting a temporary only when the transfer
/// graph has a cycle. This is the careful-ordering machinery Section 3.6 of
/// the paper requires for the swap and virtual-swap problems: the `Waiting`
/// array accumulates per-edge copy sets, and this pass emits them.
///
/// lowerPhis is the one phi lowering both SSA destructors end with: the
/// Standard baseline (Briggs et al.'s phi instantiation, one copy per phi
/// argument) calls it with the identity map, the fast coalescer with its
/// partition's representatives.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SSA_PARALLELCOPY_H
#define FCC_SSA_PARALLELCOPY_H

#include "ir/Instruction.h"
#include <cstddef>
#include <functional>
#include <vector>

namespace fcc {

class Function;
class Variable;

/// One pending copy: Dst receives Src's value; all tasks in a batch read
/// their sources simultaneously.
struct CopyTask {
  Variable *Dst = nullptr;
  Operand Src;
};

/// Result of sequentialization.
struct SequencedCopies {
  /// Instructions to insert, in order (made in the function, linked
  /// nowhere yet).
  std::vector<Instruction *> Insts;
  /// Number of cycle-breaking temporaries that were created.
  unsigned TempsUsed = 0;
};

/// Sequentializes \p Tasks. Destinations must be pairwise distinct;
/// self-copies are dropped. Immediate-source tasks are emitted last (they
/// cannot participate in cycles). Fresh temporaries are created in \p F with
/// names "pc.tmp.N" using \p TempCounter.
SequencedCopies sequentializeParallelCopy(const std::vector<CopyTask> &Tasks,
                                          Function &F, unsigned &TempCounter);

/// Outcome counters for one phi lowering.
struct DestructionStats {
  unsigned CopiesInserted = 0;
  unsigned TempsUsed = 0;
  /// Peak bytes of the pass's side structures (the Waiting copy lists).
  size_t PeakBytes = 0;
};

/// Replaces every phi in \p F with copies at the end of its predecessors.
/// \p Loc maps an SSA name to the variable that holds it afterwards. The
/// phi `d = phi(.., s, ..)` adds `Loc(d) <- Loc(s)` to Waiting[p] for the
/// predecessor p that s arrives from, unless s is a variable already in
/// Loc(d); each Waiting[p] is sequenced as one parallel copy and inserted
/// before p's terminator. \p F must have no critical edges (the lost-copy
/// problem); on return it has no phis.
DestructionStats lowerPhis(Function &F,
                           const std::function<Variable *(Variable *)> &Loc);

} // namespace fcc

#endif // FCC_SSA_PARALLELCOPY_H
