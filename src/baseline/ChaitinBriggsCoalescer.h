//===- baseline/ChaitinBriggsCoalescer.h - The baseline ---------*- C++ -*-===//
///
/// \file
/// The interference-graph copy coalescer the paper compares against
/// (Section 4): live ranges are identified by unioning phi webs out of
/// unfolded SSA, then a build/coalesce loop removes copies whose endpoints
/// do not interfere, innermost loops first, rebuilding the graph until no
/// copy can be removed.
///
/// Two variants share the implementation:
///   - "Briggs"  — every build covers all live-range names (classic);
///   - "Briggs*" — rebuilds cover only copy-involved names via a compact
///     mapping array (the engineering insight of Section 4.1). Identical
///     results, far smaller bit matrices.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_BASELINE_CHAITINBRIGGSCOALESCER_H
#define FCC_BASELINE_CHAITINBRIGGSCOALESCER_H

#include <cstddef>
#include <vector>

namespace fcc {

class Function;
struct Instrumentation;

/// Chaitin/Briggs step 2, and the other half of the paper's title: unions
/// the phi webs of an SSA function built *without* copy folding, renames
/// each web to a single live-range name and deletes the phis. No copies are
/// needed: versions of one source variable never interfere. Returns the
/// number of webs (live ranges) formed from more than one name.
unsigned identifyLiveRangeWebs(Function &F);

/// Coalescer configuration.
struct BriggsOptions {
  /// Use the improved copy-involved-only graph rebuilds (Briggs*).
  bool Improved = false;
  /// Observability (support/Stats.h): per-pass briggs.ig-build /
  /// briggs.coalesce-pass spans (category "coalesce") plus the briggs.*
  /// outcome counters. Null (the default) is uninstrumented.
  const Instrumentation *Instr = nullptr;
};

/// Outcome counters for one run.
struct BriggsStats {
  unsigned CopiesCoalesced = 0;
  unsigned Iterations = 0;
  /// Interference-graph footprint of each build/coalesce pass, in bytes
  /// (Table 1 reports the first and second pass).
  std::vector<size_t> GraphBytesPerPass;
  /// Peak bytes across passes (graph + live sets + copy work list).
  size_t PeakBytes = 0;
};

/// Runs the build/coalesce loop over \p F's Copy instructions: any copy
/// whose source and destination do not interfere is removed and its names
/// are merged. \p F must not contain phis (run identifyLiveRangeWebs or a
/// destruction pass first).
BriggsStats coalesceCopiesBriggs(Function &F, const BriggsOptions &Opts = {});

} // namespace fcc

#endif // FCC_BASELINE_CHAITINBRIGGSCOALESCER_H
