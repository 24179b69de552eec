//===- tools/fcc-batch.cpp - Parallel batch driver ------------------------===//
//
// Batch front end for the compilation service: compile a corpus of IR files
// and/or generated routines across worker threads and emit a machine-
// readable JSON report. Per-unit failures (unreadable, unparsable,
// non-verifying, over budget) are reported, never fatal; the exit status
// reflects whether every unit succeeded.
//
//   fcc-batch DIR|FILE... [options]
//
//   --pipeline=new|standard|briggs|briggs*  configuration (default new)
//   --machine=uniformN|dsp|embedded
//                       run the register allocator after the pipeline on
//                       every unit; reports gain per-function and total
//                       spill columns (spill_stores, reloads, ...)
//   --passes=SEQ        comma-separated optimization passes (sccp, adce,
//                       pre) run on every unit's SSA form before the
//                       coalescing pipeline; folded into the cache key
//   --jobs=N            worker threads (default 1; 0 = hardware)
//   --generate=N[:SEED] append N generated routines (default seed 1)
//   --seed=N            generation seed (alternative to --generate's :SEED;
//                       whichever flag comes last wins)
//   --json=PATH         write the JSON report to PATH ('-' for stdout)
//   --no-timings        deterministic report: omit timings and job count,
//                       so reports from different --jobs compare equal
//   --stats             aggregate per-phase timers and named counters
//                       across workers and print them after the summary
//   --cache[=BYTES]     dedup identical and alpha-equivalent units within
//                       the batch through a result cache (default budget
//                       256 MiB); with --stats the deterministic
//                       cache.hits/cache.misses counters land in the
//                       report's "stats" key, byte-identical across --jobs
//   --trace=PATH        write a Chrome trace (chrome://tracing / Perfetto)
//                       of every pipeline phase on every worker to PATH
//   --check             validate each New-pipeline partition (checker)
//   --run ARG,...       execute every function on the integer args
//   --strict            insert entry initializations for non-strict inputs
//   --max-instructions=N  per-unit input-size budget (0 = unlimited)
//   --time-budget-ms=N    per-unit wall-clock budget (0 = unlimited)
//   --quiet             suppress the human-readable summary on stdout
//
// Exit status: 0 all units ok, 1 some unit failed, 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "server/ResultCache.h"
#include "service/CompilationService.h"
#include "service/WorkUnit.h"
#include "support/ArgParse.h"
#include "support/TraceWriter.h"

#include <memory>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

using namespace fcc;

namespace {

struct BatchOptions {
  std::vector<std::string> Paths;
  ServiceOptions Service;
  unsigned GenerateCount = 0;
  uint64_t GenerateSeed = 1;
  std::string JsonPath;
  std::string TracePath;
  bool UseCache = false;
  size_t CacheBytes = 256u << 20;
  bool IncludeTimings = true;
  bool ShowStats = false;
  bool Quiet = false;
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s DIR|FILE... [--pipeline=new|standard|briggs|briggs*]\n"
      "       [--machine=uniformN|dsp|embedded] [--passes=sccp,adce,pre]\n"
      "       [--jobs=N] [--generate=N[:SEED]] [--seed=N] [--json=PATH]\n"
      "       [--no-timings] [--cache[=BYTES]]\n"
      "       [--stats] [--trace=PATH] [--check] [--run ARG,...] [--strict]\n"
      "       [--max-instructions=N] [--time-budget-ms=N] [--quiet]\n",
      Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, BatchOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Error;
    FlagParse Shared = parseServiceFlag(Arg, Opts.Service, Error);
    if (Shared == FlagParse::Invalid) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return false;
    }
    if (Shared == FlagParse::Parsed)
      continue;
    if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--jobs=", Opts.Service.Jobs))
        return false;
    } else if (Arg.rfind("--generate=", 0) == 0) {
      if (!parseGenerateFlag(Arg, Opts.GenerateCount, Opts.GenerateSeed))
        return false;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--seed=", Opts.GenerateSeed))
        return false;
    } else if (Arg.rfind("--json=", 0) == 0) {
      Opts.JsonPath = Arg.substr(7);
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opts.TracePath = Arg.substr(std::strlen("--trace="));
    } else if (Arg == "--no-timings") {
      Opts.IncludeTimings = false;
    } else if (Arg == "--cache") {
      Opts.UseCache = true;
    } else if (Arg.rfind("--cache=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--cache=", Opts.CacheBytes, /*Min=*/1))
        return false;
      Opts.UseCache = true;
    } else if (Arg == "--stats") {
      Opts.ShowStats = true;
      Opts.Service.CollectStats = true;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else if (Arg.rfind("--max-instructions=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--max-instructions=",
                             Opts.Service.MaxUnitInstructions))
        return false;
    } else if (Arg.rfind("--time-budget-ms=", 0) == 0) {
      // Bounded so that the budget in microseconds cannot wrap.
      uint64_t Millis = 0;
      if (!parseUnsignedFlag(Arg, "--time-budget-ms=", Millis, /*Min=*/0,
                             std::numeric_limits<uint64_t>::max() / 1000))
        return false;
      Opts.Service.MaxUnitMicros = Millis * 1000;
    } else if (Arg == "--run") {
      Opts.Service.Execute = true;
      if (!parseRunFlag(Argc, Argv, I, Opts.Service.ExecArgs))
        return false;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Opts.Paths.push_back(Arg);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return !Opts.Paths.empty() || Opts.GenerateCount != 0;
}

} // namespace

int main(int Argc, char **Argv) {
  BatchOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);
  std::string Error;
  if (!validateServiceOptions(Opts.Service, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 2;
  }

  std::vector<WorkUnit> Units;
  for (const std::string &Path : Opts.Paths) {
    if (!collectUnits(Path, Units, Error)) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return 2;
    }
  }
  if (Opts.GenerateCount != 0) {
    std::vector<WorkUnit> Gen =
        generatedCorpus(Opts.GenerateCount, Opts.GenerateSeed);
    for (WorkUnit &U : Gen)
      Units.push_back(std::move(U));
  }
  if (Units.empty()) {
    std::fprintf(stderr, "no work units (no .ir/.fcc files found)\n");
    return 2;
  }

  TraceWriter Trace;
  if (!Opts.TracePath.empty())
    Opts.Service.Trace = &Trace;

  std::unique_ptr<ResultCache> Cache;
  if (Opts.UseCache) {
    Cache = std::make_unique<ResultCache>(
        ResultCache::Options{Opts.CacheBytes, /*Shards=*/8});
    Opts.Service.Cache = Cache.get();
  }

  CompilationService Service(Opts.Service);
  BatchReport Report = Service.run(Units);

  if (!Opts.TracePath.empty()) {
    std::string TraceError;
    if (!Trace.writeFile(Opts.TracePath, TraceError)) {
      std::fprintf(stderr, "%s\n", TraceError.c_str());
      return 2;
    }
  }

  if (!Opts.JsonPath.empty()) {
    std::string Json = Report.toJson(Opts.IncludeTimings);
    if (Opts.JsonPath == "-") {
      std::fwrite(Json.data(), 1, Json.size(), stdout);
      std::fputc('\n', stdout);
    } else {
      std::ofstream Out(Opts.JsonPath, std::ios::binary);
      if (!Out) {
        std::fprintf(stderr, "cannot write %s\n", Opts.JsonPath.c_str());
        return 2;
      }
      Out << Json << '\n';
    }
  }

  if (!Opts.Quiet)
    std::fputs(Report.summary().c_str(), stdout);
  if (Opts.ShowStats)
    std::fputs(Report.statsText(Opts.IncludeTimings).c_str(), stdout);

  return Report.totals().Failed == 0 ? 0 : 1;
}
