//===- opt/PassManager.h - Named SSA pass sequences -------------*- C++ -*-===//
///
/// \file
/// The optimization layer between SSA construction and SSA destruction: a
/// small pass manager running named sequences of the three classic SSA
/// passes (SCCP, ADCE, lospre-lite PRE) so the coalescers see the phi webs
/// and copy chains of *optimized* code — the regime the paper targets — and
/// so phase-ordering experiments ("sccp,adce,pre" vs "pre,sccp,adce") are
/// one flag away in every driver.
///
/// Sequences have one canonical spelling (pass names joined by commas,
/// e.g. "sccp,adce,pre"), which is what the service folds into its cache
/// fingerprint and the tools accept via --passes=. Parsing is strict:
/// unknown names are rejected, never skipped (same policy as ArgParse
/// integers), so the drivers can exit 2 listing the known passes.
///
/// Every pass keeps all mutable state call-scoped (see the re-entrancy
/// guarantee in pipeline/Pipeline.h); runPassSequence is safe to call
/// concurrently on distinct functions.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_OPT_PASSMANAGER_H
#define FCC_OPT_PASSMANAGER_H

#include "support/Stats.h"
#include <string>
#include <vector>

namespace fcc {

class Function;

/// The passes the manager can schedule, in their canonical spellings:
/// "sccp", "adce", "pre".
enum class PassKind : unsigned char { Sccp, Adce, Pre };

/// Canonical name of one pass.
const char *passName(PassKind Kind);

/// Comma-separated list of every known pass name, for diagnostics
/// ("sccp, adce, pre").
const char *knownPassNames();

/// Canonical spelling of a sequence: names joined by ',' ("" when empty).
std::string passSequenceName(const std::vector<PassKind> &Passes);

/// Parses a --passes= value: a comma-separated list of pass names, or the
/// empty string / "none" for the empty sequence. Returns false on any
/// unknown name, leaving \p Out untouched (and naming the offender in
/// \p BadToken when given).
bool parsePassSequence(const std::string &Text, std::vector<PassKind> &Out,
                       std::string *BadToken = nullptr);

/// What one sequence did, summed over its passes.
struct PassStats {
  /// SCCP: defs proven constant and rewritten to `const`.
  unsigned SccpConstants = 0;
  /// SCCP: copies forwarded (uses retargeted at the source) and deleted.
  unsigned SccpCopies = 0;
  /// SCCP + ADCE: conditional branches folded to unconditional ones.
  unsigned BranchesFolded = 0;
  /// ADCE: dead non-terminator instructions deleted.
  unsigned InstsRemoved = 0;
  /// ADCE: dead phis pruned.
  unsigned PhisRemoved = 0;
  /// PRE: loop-invariant pure computations hoisted above their loop.
  unsigned PreHoisted = 0;
  /// PRE: hoisted computations merged with an equal one already available.
  unsigned PreEliminated = 0;
  /// Blocks deleted as unreachable after branch folding (both passes).
  unsigned BlocksRemoved = 0;
};

/// Everything one sequence invocation can be configured with.
struct PassManagerOptions {
  /// Where each pass records its span (category "opt") and its opt.*
  /// counters; null is the uninstrumented fast path.
  const Instrumentation *Instr = nullptr;
  /// Re-verify structural and SSA invariants after every pass, throwing
  /// std::logic_error naming the offending pass on a violation. On by
  /// default in debug builds; tests force it on in release builds.
#ifndef NDEBUG
  bool Verify = true;
#else
  bool Verify = false;
#endif
};

/// Runs \p Passes over \p F in order. \p F must be verified strict SSA;
/// it remains so afterwards (checked between passes when Opts.Verify).
/// Passes may fold branches and delete unreachable blocks, so callers
/// holding a DominatorTree or Liveness over \p F must rebuild them.
PassStats runPassSequence(Function &F, const std::vector<PassKind> &Passes,
                          const PassManagerOptions &Opts = {});

/// Rewrites every phi in a single-predecessor block as a copy (or const,
/// for an immediate operand) at the top of the block, returning how many
/// were demoted. Branch folding can strip a join down to one predecessor;
/// its phis are then degenerate one-operand merges that the coalescers'
/// phis-only-at-joins invariant forbids, so SCCP and ADCE call this after
/// rewriting edges. Safe because a single-pred block cannot carry phi
/// cycles: the block would have to dominate its own predecessor, which
/// needs a second (entry) edge.
unsigned demoteSinglePredPhis(Function &F);

} // namespace fcc

#endif // FCC_OPT_PASSMANAGER_H
