//===- fuzz/Fuzzer.cpp ----------------------------------------------------===//

#include "fuzz/Fuzzer.h"

#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "support/JsonEscape.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "workload/ProgramGenerator.h"

#include <atomic>
#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

using namespace fcc;

namespace {

std::string reproFileName(unsigned RunIndex) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "fuzz-%06u.fcc", RunIndex);
  return Buf;
}

std::string functionNameForRun(unsigned RunIndex) {
  return "fuzz_" + std::to_string(RunIndex);
}

/// Result slot for one run; written by exactly one task, read after wait().
struct RunSlot {
  bool Completed = false;
  bool Rejected = false;
  std::optional<FuzzFinding> Finding;
};

/// Copies the identifying fields of the first divergence into \p F.
void recordFirstDivergence(FuzzFinding &F, const OracleResult &R) {
  if (R.Divergences.empty())
    return;
  const Divergence &D = R.Divergences.front();
  F.Kind = divergenceKindName(D.Kind);
  F.Config = D.Config;
  F.Detail = D.Detail;
}

/// Shrinks a failing program: first regenerate along the generator's ladder
/// (coarse, one oracle pass per rung), then instruction-level reduction.
void shrinkFinding(FuzzFinding &F, const GeneratorOptions &G,
                   unsigned RunIndex, const FuzzOptions &Opts) {
  std::string Best = F.OriginalIr;
  for (const GeneratorOptions &Rung : shrinkLadder(G)) {
    Module M;
    generateProgram(M, functionNameForRun(RunIndex), Rung);
    std::string Text = printModule(M);
    OracleResult R = runDifferentialOracle(Text, Opts.Oracle);
    if (R.InputOk && !R.Divergences.empty())
      Best = std::move(Text);
  }

  ReducerPredicate StillFails = [&Opts](const std::string &Text) {
    OracleResult R = runDifferentialOracle(Text, Opts.Oracle);
    return R.InputOk && !R.Divergences.empty();
  };
  F.ReducedIr = reduceIr(Best, StillFails, F.Reduction, Opts.Reducer);

  // Re-derive kind/config/detail from the reduced program: reduction may
  // have eliminated the original divergence in favor of a simpler one.
  recordFirstDivergence(F, runDifferentialOracle(F.ReducedIr, Opts.Oracle));
}

/// One complete run: generate, check, shrink. Everything derives from
/// (Opts.Seed, RunIndex).
void executeRun(unsigned RunIndex, const FuzzOptions &Opts, RunSlot &Slot) {
  GeneratorOptions G = fuzzerOptionsForRun(Opts.Seed, RunIndex);
  Module M;
  generateProgram(M, functionNameForRun(RunIndex), G);
  std::string Text = printModule(M);

  OracleResult R = runDifferentialOracle(Text, Opts.Oracle);
  if (!R.InputOk) {
    Slot.Rejected = true;
    return;
  }
  if (R.Divergences.empty())
    return;

  FuzzFinding F;
  F.RunIndex = RunIndex;
  F.ProgramSeed = G.Seed;
  F.ReproFile = reproFileName(RunIndex);
  F.OriginalIr = Text;
  F.ReducedIr = Text;
  recordFirstDivergence(F, R);
  if (Opts.Reduce)
    shrinkFinding(F, G, RunIndex, Opts);
  Slot.Finding = std::move(F);
}

// --- JSON emission ------------------------------------------------------===//

void appendFinding(std::string &Out, const FuzzFinding &F) {
  Out += '{';
  appendJsonNum(Out, "run", F.RunIndex);
  Out += ',';
  appendJsonNum(Out, "program_seed", F.ProgramSeed);
  Out += ',';
  appendJsonStr(Out, "kind", F.Kind);
  Out += ',';
  appendJsonStr(Out, "config", F.Config);
  Out += ',';
  appendJsonStr(Out, "detail", F.Detail);
  Out += ',';
  appendJsonStr(Out, "repro", F.ReproFile);
  Out += ",\"reduction\":{";
  appendJsonNum(Out, "rounds", F.Reduction.Rounds);
  Out += ',';
  appendJsonNum(Out, "candidates", F.Reduction.CandidatesTried);
  Out += ',';
  appendJsonNum(Out, "blocks_before", F.Reduction.BlocksBefore);
  Out += ',';
  appendJsonNum(Out, "blocks_after", F.Reduction.BlocksAfter);
  Out += ',';
  appendJsonNum(Out, "insts_before", F.Reduction.InstsBefore);
  Out += ',';
  appendJsonNum(Out, "insts_after", F.Reduction.InstsAfter);
  Out += "}}";
}

} // namespace

std::string FuzzReport::toJson() const {
  // No timings, no job count: byte-identical across --jobs for a fixed
  // (seed, runs) pair. fcc-fuzz's determinism smoke test depends on it.
  std::string Out;
  Out += '{';
  appendJsonStr(Out, "schema", "fcc-fuzz-1");
  Out += ',';
  appendJsonNum(Out, "seed", MasterSeed);
  Out += ',';
  appendJsonNum(Out, "runs", RunsRequested);
  Out += ',';
  appendJsonNum(Out, "completed", RunsCompleted);
  Out += ',';
  appendJsonNum(Out, "rejected_inputs", InputsRejected);
  Out += ",\"findings\":[";
  for (size_t I = 0; I != Findings.size(); ++I) {
    if (I)
      Out += ',';
    appendFinding(Out, Findings[I]);
  }
  Out += "]}";
  return Out;
}

std::string FuzzReport::summary() const {
  std::string Out = "fcc-fuzz: seed=" + std::to_string(MasterSeed) +
                    " completed=" + std::to_string(RunsCompleted) + "/" +
                    std::to_string(RunsRequested) +
                    " findings=" + std::to_string(Findings.size());
  if (InputsRejected)
    Out += " rejected-inputs=" + std::to_string(InputsRejected);
  for (const FuzzFinding &F : Findings) {
    Out += "\n  run " + std::to_string(F.RunIndex) + " [" + F.Kind + "] " +
           F.Config + ": " + F.Detail + " (" +
           std::to_string(F.Reduction.BlocksBefore) + " -> " +
           std::to_string(F.Reduction.BlocksAfter) + " blocks, repro " +
           F.ReproFile + ")";
  }
  return Out;
}

FuzzReport fcc::runFuzzCampaign(const FuzzOptions &Opts) {
  FuzzReport Report;
  Report.MasterSeed = Opts.Seed;
  Report.RunsRequested = Opts.Runs;

  std::vector<RunSlot> Slots(Opts.Runs);
  Timer Wall;
  std::atomic<unsigned> FindingCount{0};

  auto shouldStop = [&Opts, &Wall, &FindingCount] {
    if (Opts.TimeBudgetSeconds &&
        Wall.elapsedMicros() >= Opts.TimeBudgetSeconds * 1'000'000ull)
      return true;
    return Opts.MaxFindings != 0 &&
           FindingCount.load(std::memory_order_relaxed) >= Opts.MaxFindings;
  };

  // Same isolation recipe as the compilation service: each run writes only
  // its own slot, and a throwing run becomes a finding, not a crash.
  auto runTask = [&Opts, &Slots, &FindingCount, &shouldStop](unsigned I) {
    if (shouldStop())
      return; // Slot stays incomplete; counted as not run.
    RunSlot &Slot = Slots[I];
    try {
      executeRun(I, Opts, Slot);
    } catch (const std::exception &E) {
      FuzzFinding F;
      F.RunIndex = I;
      F.ProgramSeed = fuzzerOptionsForRun(Opts.Seed, I).Seed;
      F.ReproFile = reproFileName(I);
      F.Kind = divergenceKindName(DivergenceKind::InternalError);
      F.Detail = E.what();
      Slot.Finding = std::move(F);
    } catch (...) {
      FuzzFinding F;
      F.RunIndex = I;
      F.ProgramSeed = fuzzerOptionsForRun(Opts.Seed, I).Seed;
      F.ReproFile = reproFileName(I);
      F.Kind = divergenceKindName(DivergenceKind::InternalError);
      F.Detail = "unknown exception";
      Slot.Finding = std::move(F);
    }
    Slot.Completed = true;
    if (Slot.Finding)
      FindingCount.fetch_add(1, std::memory_order_relaxed);
  };

  if (Opts.Jobs == 1) {
    for (unsigned I = 0; I != Opts.Runs; ++I)
      runTask(I);
  } else {
    ThreadPool Pool(Opts.Jobs);
    for (unsigned I = 0; I != Opts.Runs; ++I)
      Pool.submit([&runTask, I] { runTask(I); });
    Pool.wait();
  }

  for (RunSlot &Slot : Slots) {
    if (Slot.Completed)
      ++Report.RunsCompleted;
    if (Slot.Rejected)
      ++Report.InputsRejected;
    if (Slot.Finding)
      Report.Findings.push_back(std::move(*Slot.Finding));
  }
  return Report;
}
