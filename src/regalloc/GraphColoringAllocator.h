//===- regalloc/GraphColoringAllocator.h - Coloring allocator ---*- C++ -*-===//
///
/// \file
/// A Chaitin/Briggs graph-coloring register allocator — the paper's stated
/// future work (Section 5): "design and implementation of a fast
/// register-allocation algorithm that uses the results presented in this
/// paper". It consumes the copy-free code the fast coalescer produces, so
/// live-range identification and coalescing have already happened without
/// ever building a graph; only the final coloring builds one.
///
/// The coloring is Briggs-style optimistic: simplify removes low-degree
/// nodes first, blocked nodes are pushed anyway, and select either finds a
/// free color or marks the node spilled (spill cost = uses weighted by loop
/// depth). This pass does NOT rewrite spill code — it returns the partial
/// assignment and the spill set; `insertSpillCode` (SpillRewriter.h) runs
/// it to convergence with actual spill/reload insertion.
///
/// Allocation is machine-model aware: with a multi-class `MachineModel`,
/// each variable is colored inside its class's global register-index range,
/// so two classes never compete for the same registers (and the soundness
/// check "simultaneously-live variables never share a register index"
/// stays valid verbatim).
///
//===----------------------------------------------------------------------===//

#ifndef FCC_REGALLOC_GRAPHCOLORINGALLOCATOR_H
#define FCC_REGALLOC_GRAPHCOLORINGALLOCATOR_H

#include "regalloc/MachineModel.h"

#include <cstddef>
#include <vector>

namespace fcc {

class Function;
class UpwardExposedLiveness;
class Variable;

/// Allocation parameters.
struct RegAllocOptions {
  /// Target machine: variables are partitioned by `classifyVariables` and
  /// each class colors only inside its own global index range.
  MachineModel Machine = uniformMachine(8);
  /// Variables the caller knows are dissolved spill machinery (reload and
  /// store temporaries, fully-dissolved victims). They are colored
  /// normally but never preferred as optimistic spill candidates:
  /// re-spilling an already-minimal range cannot reduce interference, so
  /// picking one over a long live range stalls the spill rewriter's
  /// convergence (Chaitin's classic infinite-spilling trap). Indexed by
  /// variable id; ids beyond the vector count as unmarked. May be null.
  const std::vector<bool> *InfiniteCost = nullptr;
  /// Parameters the spill rewriter has turned stack-passed: their only
  /// remaining reference is the entry `spill` that models the caller's
  /// argument store, so they occupy no register at any point. They are
  /// excluded from the interference graph entirely (in particular from the
  /// always-pairwise parameter interference of the calling convention) and
  /// keep RegisterOf == -1 even in a complete allocation. Indexed by
  /// variable id; may be null.
  const std::vector<bool> *StackResident = nullptr;
};

/// Result of one allocation.
///
/// Contract: `RegisterOf` holds GLOBAL register indices (see
/// MachineModel.h); `RegistersUsed` counts the distinct register indices
/// appearing in `RegisterOf`. When `Spilled` is non-empty the assignment
/// is PARTIAL — `RegistersUsed` then describes only the colored portion
/// and is not a complete measure of the function's register demand. After
/// `insertSpillCode` converges, `Spilled` is guaranteed empty and
/// `RegistersUsed` is the real count (tested in SpillRewriterTest).
struct RegAllocResult {
  /// Register index per variable id, or -1 when spilled, unused, or
  /// stack-resident (RegAllocOptions::StackResident).
  std::vector<int> RegisterOf;
  /// Register class per variable id (all zero on uniform machines).
  std::vector<unsigned> ClassOf;
  /// Variables that did not receive a register, in select order.
  std::vector<const Variable *> Spilled;
  /// Number of distinct registers actually used by the assignment.
  unsigned RegistersUsed = 0;
};

/// Colors \p F's variables against Opts' machine. \p F must be phi-free
/// (run a destruction pipeline first). The assignment is guaranteed
/// interference-free: two simultaneously-live variables never share a
/// register index.
RegAllocResult allocateRegisters(const Function &F,
                                 const RegAllocOptions &Opts);

/// The same allocation over analyses the caller already holds: \p LV is
/// \p F's compact liveness (only the names live across some block
/// boundary) and \p LoopDepth the loop-nesting depth of each block,
/// indexed by block id. insertSpillCode shares one liveness solve per
/// round and one loop nest per function this way; the overload above
/// computes both.
RegAllocResult allocateRegisters(const Function &F,
                                 const RegAllocOptions &Opts,
                                 const UpwardExposedLiveness &LV,
                                 const std::vector<unsigned> &LoopDepth);

} // namespace fcc

#endif // FCC_REGALLOC_GRAPHCOLORINGALLOCATOR_H
