//===- ssa/ParallelCopy.h - Parallel copy sequentialization -----*- C++ -*-===//
///
/// \file
/// Orders a set of semantically parallel copies into a correct sequence of
/// Copy/Const instructions, inserting a temporary only when the transfer
/// graph has a cycle. This is the careful-ordering machinery Section 3.6 of
/// the paper requires for the swap and virtual-swap problems: the `Waiting`
/// array accumulates per-edge copy sets, and this pass emits them.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SSA_PARALLELCOPY_H
#define FCC_SSA_PARALLELCOPY_H

#include "ir/Instruction.h"
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

} // namespace fcc

#endif // FCC_SSA_PARALLELCOPY_H
