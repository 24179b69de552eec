//===- fuzz/DifferentialOracle.h - Cross-config equivalence -----*- C++ -*-===//
///
/// \file
/// The correctness oracle of the fuzzing subsystem. For one textual-IR
/// function it materializes a fresh copy per pipeline configuration —
/// minimal / semi-pruned / pruned SSA, copy folding on and off, the paper's
/// FastCoalescer (with and without the CoalescingChecker audit) against
/// standard phi instantiation and the Chaitin/Briggs coalescers, plus
/// optimized-pipeline configurations that run SCCP/ADCE/PRE sequences over
/// the SSA form before destruction — runs the conversion, and compares
/// observable behaviour under the interpreter on several seeded argument
/// vectors. On top of the dynamic comparison it
/// asserts three static properties:
///
///   - the fast coalescer never leaves *more* copies than the naive
///     destruction of the same SSA form would (coalescing only removes
///     copies the standard scheme inserts);
///   - the graph-coloring allocator's assignment over the fast-coalesced
///     code is interference-free (checkRegisterAssignment over from-scratch
///     liveness, not the allocator's own graph);
///   - the interchangeable analysis implementations agree: the DSU and CHK
///     dominator algorithms must decorate identical trees and the sparse
///     and dense liveness solvers must fill identical sets on every input,
///     checked directly, bit for bit.
///
/// Everything is deterministic: a fixed input text and OracleOptions always
/// produce the same verdict, which is what lets the fuzz driver shard runs
/// across threads and still emit byte-identical reports.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_FUZZ_DIFFERENTIALORACLE_H
#define FCC_FUZZ_DIFFERENTIALORACLE_H

#include "opt/PassManager.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fcc {

/// Knobs for one oracle invocation.
struct OracleOptions {
  /// Interpreter memory size (words) for both reference and rewritten runs.
  unsigned MemoryWords = 64;
  /// Step limit for the reference execution. Rewritten code runs with a
  /// proportionally larger limit so legitimate completions still complete
  /// even though conversion changes the instruction count.
  uint64_t StepLimit = 2'000'000;
  /// Seeded argument vectors per function, in addition to the all-zeros
  /// vector that is always run.
  unsigned ArgVectors = 3;
  /// Seed for the argument generator.
  uint64_t ArgSeed = 1;
  /// Bank size for the allocator cross-checks on the checked fast
  /// configuration: first a partial coloring validated against scratch
  /// liveness ("/regalloc"), then spill rewriting to convergence with
  /// verification, a soundness re-check of the complete assignment on the
  /// rewritten code, and execution against the reference ("/spill").
  /// 0 skips both paths; small values (2) force heavy spill traffic.
  unsigned Registers = 8;
  /// Extra pass sequence: when non-empty, one additional fast-checked
  /// configuration runs these optimization passes (opt/PassManager.h)
  /// over pruned+fold SSA before coalescing, on top of the built-in pass
  /// configurations the oracle always compares. Lets campaigns stress a
  /// specific phase ordering without rebuilding.
  std::vector<PassKind> Passes;
};

/// What kind of disagreement the oracle observed.
enum class DivergenceKind {
  VerifyFail,     ///< The rewritten function no longer verifies.
  CheckRefuted,   ///< CoalescingChecker refuted the fast partition.
  ExecMismatch,   ///< Return value / completion / final memory diverged.
  CopyRegression,   ///< Fast coalescing left more copies than naive
                    ///< destruction of the same SSA flavor.
  AllocUnsound,     ///< Two simultaneously-live variables share a register
                    ///< (copy sources exempt at the copy).
  AnalysisMismatch, ///< DSU vs CHK dominators or postdominators, or sparse
                    ///< vs dense liveness, disagreed on the same function.
  InternalError,    ///< A pass threw; captured, remaining configs still ran.
};

/// Stable lower-case name ("exec-mismatch", ...).
const char *divergenceKindName(DivergenceKind Kind);

/// One observed disagreement.
struct Divergence {
  DivergenceKind Kind = DivergenceKind::ExecMismatch;
  /// Function and configuration it was observed in ("@f pruned+fold/...").
  std::string Config;
  /// Deterministic description (offending args, values, copy counts, ...).
  std::string Detail;
};

/// Verdict over one textual-IR module.
struct OracleResult {
  /// False when the input did not parse or broke the compile-input
  /// contract (checkCompileInput: verifies, no phis, strict) — the input
  /// is rejected, divergences are meaningless. The fuzz driver treats
  /// this as "not a finding" (the generator guarantees valid inputs; the
  /// reducer uses it to discard invalid shrink candidates).
  bool InputOk = false;
  /// Why InputOk is false.
  std::string InputError;
  /// Every disagreement across all configurations, in config order.
  std::vector<Divergence> Divergences;
  /// Configurations actually run (for reporting).
  unsigned ConfigsRun = 0;

  bool clean() const { return InputOk && Divergences.empty(); }
};

/// Names of the pipeline configurations the oracle compares, in run order
/// (exposed for tests and reporting).
std::vector<std::string> oracleConfigNames();

/// Runs every configuration over every function of \p IrText and compares
/// against the unconverted reference. Never throws: per-config exceptions
/// become InternalError divergences.
OracleResult runDifferentialOracle(const std::string &IrText,
                                   const OracleOptions &Opts = {});

} // namespace fcc

#endif // FCC_FUZZ_DIFFERENTIALORACLE_H
