//===- bench/parallel_scaling.cpp -----------------------------------------===//
//
// Throughput scaling of the compilation service: compile a generated corpus
// at 1/2/4/8 worker threads (or a custom --jobs list) and report wall time,
// units/second and speedup over the single-threaded run. Because the
// paper's coalescer needs no cross-function state, function-level sharding
// should scale near-linearly until the machine runs out of cores — on an
// N-core host expect ~min(jobs, N)x. The harness also cross-checks
// determinism: the timing-free JSON report must be byte-identical at every
// job count.
//
//   parallel_scaling [--units=N] [--seed=S] [--jobs=A,B,...]
//                    [--pipeline=new|standard|briggs|briggs*]
//
// Exit status: 0 deterministic with no unit failures, 1 otherwise, 2 on a
// bad argument.
//
//===----------------------------------------------------------------------===//

#include "service/CompilationService.h"
#include "service/WorkUnit.h"
#include "support/ArgParse.h"

#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace fcc;

namespace {

/// Parses \p Text as an unsigned count that fits in `unsigned`.
bool parseCount(const std::string &Text, unsigned &Out) {
  uint64_t Value = 0;
  if (!parseUint64Arg(Text, Value) ||
      Value > std::numeric_limits<unsigned>::max())
    return false;
  Out = static_cast<unsigned>(Value);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned UnitCount = 256;
  uint64_t Seed = 1;
  std::vector<unsigned> JobCounts = {1, 2, 4, 8};
  ServiceOptions Flags; // Only --pipeline= is read from here.

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    bool Ok = true;
    if (Arg.rfind("--units=", 0) == 0) {
      Ok = parseCount(Arg.substr(8), UnitCount);
    } else if (Arg.rfind("--seed=", 0) == 0) {
      Ok = parseUint64Arg(Arg.substr(7), Seed);
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      JobCounts.clear();
      const std::string List = Arg.substr(7);
      size_t Start = 0, Comma;
      do {
        Comma = List.find(',', Start);
        JobCounts.push_back(0);
        Ok = Ok && parseCount(List.substr(Start, Comma - Start),
                              JobCounts.back());
        Start = Comma + 1;
      } while (Comma != std::string::npos);
    } else if (Arg.rfind("--pipeline=", 0) == 0) {
      std::string Error;
      if (parseServiceFlag(Arg, Flags, Error) == FlagParse::Invalid) {
        std::fprintf(stderr, "%s\n", Error.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return 2;
    }
    if (!Ok) {
      std::fprintf(stderr, "bad value in '%s'\n", Arg.c_str());
      return 2;
    }
  }
  const PipelineKind Kind = Flags.Pipeline;

  std::vector<WorkUnit> Corpus = generatedCorpus(UnitCount, Seed);
  std::printf("Parallel scaling: %u generated units, %s pipeline, "
              "%u hardware threads\n\n",
              UnitCount, pipelineName(Kind),
              std::thread::hardware_concurrency());
  std::printf("%8s %12s %12s %10s\n", "jobs", "wall (ms)", "units/s",
              "speedup");

  double BaseMillis = 0.0;
  std::string BaseJson;
  bool Deterministic = true;
  unsigned Failures = 0;

  for (unsigned Jobs : JobCounts) {
    ServiceOptions Opts;
    Opts.Pipeline = Kind;
    Opts.Jobs = Jobs;
    CompilationService Service(Opts);

    // Warm-up run, then keep the fastest of three for stable ratios.
    BatchReport Best = Service.run(Corpus);
    for (int Rep = 0; Rep != 2; ++Rep) {
      BatchReport Next = Service.run(Corpus);
      if (Next.WallMicros < Best.WallMicros)
        Best = std::move(Next);
    }

    double Millis = static_cast<double>(Best.WallMicros) / 1000.0;
    double PerSec = Millis == 0.0
                        ? 0.0
                        : static_cast<double>(UnitCount) * 1000.0 / Millis;
    if (BaseMillis == 0.0)
      BaseMillis = Millis;
    std::printf("%8u %12.2f %12.1f %9.2fx\n", Jobs, Millis, PerSec,
                Millis == 0.0 ? 0.0 : BaseMillis / Millis);

    std::string Json = Best.toJson(/*IncludeTimings=*/false);
    if (BaseJson.empty())
      BaseJson = std::move(Json);
    else if (Json != BaseJson)
      Deterministic = false;
    Failures += Best.totals().Failed;
  }

  std::printf("\nreport deterministic across job counts: %s\n",
              Deterministic ? "yes" : "NO — BUG");
  std::printf("unit failures: %u\n", Failures);
  return (Deterministic && Failures == 0) ? 0 : 1;
}
