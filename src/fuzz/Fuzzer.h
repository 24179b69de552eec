//===- fuzz/Fuzzer.h - Differential fuzzing campaigns -----------*- C++ -*-===//
///
/// \file
/// The campaign driver tying the fuzzing subsystem together: generate a
/// deterministic stream of programs (workload/ProgramGenerator), confront
/// each with the DifferentialOracle, and shrink every divergence — first by
/// regenerating along the generator's shrink ladder, then with the
/// instruction-level IRReducer — into a minimal reproducer.
///
/// Concurrency follows the compilation service's recipe: runs are sharded
/// across the ThreadPool, every run derives all randomness from
/// (MasterSeed, RunIndex), results land in per-run slots, and a run that
/// throws is captured as an internal-error finding rather than taking the
/// campaign down. The report (and its JSON form) is therefore
/// byte-identical across --jobs counts for a fixed seed and run count.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_FUZZ_FUZZER_H
#define FCC_FUZZ_FUZZER_H

#include "fuzz/DifferentialOracle.h"
#include "fuzz/IRReducer.h"
#include <cstdint>
#include <string>
#include <vector>

namespace fcc {

/// Knobs for one campaign.
struct FuzzOptions {
  /// Master seed; run i derives its program from (Seed, i).
  uint64_t Seed = 1;
  /// Programs to generate and check.
  unsigned Runs = 100;
  /// Worker threads; 0 means hardware concurrency, 1 runs inline.
  unsigned Jobs = 1;
  /// Wall-clock budget in seconds, checked cooperatively before each run
  /// (0 = unlimited). Under a budget RunsCompleted may be less than Runs
  /// and, with Jobs > 1, is scheduling-dependent — determinism guarantees
  /// hold only for budget-less campaigns.
  uint64_t TimeBudgetSeconds = 0;
  /// Stop launching runs once this many findings exist (0 = never). Like
  /// the time budget, this makes RunsCompleted scheduling-dependent when
  /// Jobs > 1.
  unsigned MaxFindings = 0;
  /// Shrink findings (ladder regeneration + IR reduction).
  bool Reduce = true;
  OracleOptions Oracle;
  /// Reduction bounds. The default candidate budget is deliberately lower
  /// than IRReducer's own: every candidate costs a full oracle pass.
  ReducerOptions Reducer{/*MaxRounds=*/8, /*MaxCandidates=*/2'000};
};

/// One divergence, shrunk to a reproducer.
struct FuzzFinding {
  unsigned RunIndex = 0;
  /// The generator seed of the offending program (GeneratorOptions::Seed).
  uint64_t ProgramSeed = 0;
  /// divergenceKindName() of the first divergence on the reduced program.
  std::string Kind;
  /// Function and configuration of that divergence.
  std::string Config;
  std::string Detail;
  /// Suggested repro filename ("fuzz-000017.fcc"), stable per run index.
  std::string ReproFile;
  std::string OriginalIr;
  std::string ReducedIr;
  ReductionStats Reduction;
};

/// Campaign outcome. Findings are ordered by run index.
struct FuzzReport {
  uint64_t MasterSeed = 0;
  unsigned RunsRequested = 0;
  /// Runs that executed (== RunsRequested unless a budget/finding cap
  /// stopped the campaign early).
  unsigned RunsCompleted = 0;
  /// Generated programs the oracle rejected as invalid input (always 0
  /// unless the generator itself regresses).
  unsigned InputsRejected = 0;
  std::vector<FuzzFinding> Findings;

  bool clean() const { return Findings.empty() && InputsRejected == 0; }

  /// Deterministic JSON (fixed key order, no timings, no job count):
  /// byte-identical across job counts for a fixed seed and run count.
  std::string toJson() const;

  /// Short human-readable summary.
  std::string summary() const;
};

/// Runs one campaign. Never throws; per-run failures become findings.
FuzzReport runFuzzCampaign(const FuzzOptions &Opts);

} // namespace fcc

#endif // FCC_FUZZ_FUZZER_H
