//===- tools/fcc-fuzz.cpp - Differential fuzzing driver -------------------===//
//
// Front end for the fuzzing subsystem: generate a seeded stream of programs,
// confront each with the differential oracle across every pipeline
// configuration, and shrink each divergence into a minimal `.fcc` repro.
//
//   fcc-fuzz [options]
//
//   --runs=N            programs to generate and check (default 100)
//   --seed=N            master seed; run i derives from (seed, i) (default 1)
//   --jobs=N            worker threads (default 1; 0 = hardware)
//   --registers=N       bank size for the oracle's register-allocation and
//                       spill-rewrite cross-checks (default 8; 0 disables
//                       them; small values like 2 force heavy spilling)
//   --passes=SEQ        run one extra fast-checked oracle configuration
//                       with this optimization pass sequence (sccp, adce,
//                       pre) on top of the built-in pass configs
//   --time-budget=SECS  stop launching runs after SECS seconds (0 = off)
//   --max-findings=N    stop launching runs after N findings (0 = off)
//   --out-dir=PATH      write summary.json and one .fcc repro per finding
//   --json=PATH         also write the JSON summary to PATH ('-' = stdout)
//   --no-reduce         keep findings unreduced (faster triage sweeps)
//   --quiet             suppress the human-readable summary
//
// The JSON summary contains no timings and no job count: for a fixed
// (--seed, --runs) pair without --time-budget/--max-findings it is
// byte-identical across --jobs values. Repros replay with
//   fcc-opt out/fuzz-NNNNNN.fcc --pipeline=new --check --run ...
// or in bulk with fcc-batch (which picks up .fcc files next to .ir).
//
// Exit status: 0 clean, 1 findings (or rejected inputs), 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "opt/PassManager.h"
#include "support/ArgParse.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

using namespace fcc;

namespace {

struct ToolOptions {
  FuzzOptions Fuzz;
  std::string OutDir;
  std::string JsonPath;
  bool Quiet = false;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--runs=N] [--seed=N] [--jobs=N] [--registers=N]\n"
               "       [--passes=sccp,adce,pre] [--time-budget=SECS]\n"
               "       [--max-findings=N] [--out-dir=PATH] [--json=PATH]\n"
               "       [--no-reduce] [--quiet]\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, ToolOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--runs=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--runs=", Opts.Fuzz.Runs))
        return false;
    } else if (Arg.rfind("--seed=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--seed=", Opts.Fuzz.Seed))
        return false;
    } else if (Arg.rfind("--jobs=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--jobs=", Opts.Fuzz.Jobs))
        return false;
    } else if (Arg.rfind("--registers=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--registers=", Opts.Fuzz.Oracle.Registers))
        return false;
    } else if (Arg.rfind("--passes=", 0) == 0) {
      std::string Name = Arg.substr(std::strlen("--passes="));
      std::string BadToken;
      if (!parsePassSequence(Name, Opts.Fuzz.Oracle.Passes, &BadToken)) {
        std::fprintf(stderr, "unknown pass '%s' (known passes: %s)\n",
                     BadToken.c_str(), knownPassNames());
        return false;
      }
    } else if (Arg.rfind("--time-budget=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--time-budget=",
                             Opts.Fuzz.TimeBudgetSeconds))
        return false;
    } else if (Arg.rfind("--max-findings=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--max-findings=", Opts.Fuzz.MaxFindings))
        return false;
    } else if (Arg.rfind("--out-dir=", 0) == 0) {
      Opts.OutDir = Arg.substr(std::strlen("--out-dir="));
      if (Opts.OutDir.empty()) {
        std::fprintf(stderr, "empty --out-dir\n");
        return false;
      }
    } else if (Arg.rfind("--json=", 0) == 0) {
      Opts.JsonPath = Arg.substr(7);
    } else if (Arg == "--no-reduce") {
      Opts.Fuzz.Reduce = false;
    } else if (Arg == "--quiet") {
      Opts.Quiet = true;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

bool writeFile(const std::filesystem::path &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << Text;
  return Out.good();
}

/// A repro is the reduced IR preceded by a `;`-comment header, so the file
/// replays as-is under fcc-opt/fcc-batch (the lexer skips comments).
std::string reproText(const FuzzFinding &F) {
  std::string Out;
  Out += "; fcc-fuzz repro: run " + std::to_string(F.RunIndex) +
         ", program seed " + std::to_string(F.ProgramSeed) + "\n";
  Out += "; kind: " + F.Kind + "\n";
  Out += "; config: " + F.Config + "\n";
  Out += "; detail: " + F.Detail + "\n";
  Out += "; replay: fcc-opt " + F.ReproFile +
         " --pipeline=new --check --run <args>\n";
  Out += F.ReducedIr;
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);

  FuzzReport Report = runFuzzCampaign(Opts.Fuzz);
  std::string Json = Report.toJson();

  if (!Opts.OutDir.empty()) {
    std::error_code Ec;
    std::filesystem::path Dir(Opts.OutDir);
    std::filesystem::create_directories(Dir, Ec);
    if (Ec) {
      std::fprintf(stderr, "cannot create %s: %s\n", Opts.OutDir.c_str(),
                   Ec.message().c_str());
      return 2;
    }
    if (!writeFile(Dir / "summary.json", Json + "\n")) {
      std::fprintf(stderr, "cannot write %s/summary.json\n",
                   Opts.OutDir.c_str());
      return 2;
    }
    for (const FuzzFinding &F : Report.Findings) {
      if (!writeFile(Dir / F.ReproFile, reproText(F))) {
        std::fprintf(stderr, "cannot write %s/%s\n", Opts.OutDir.c_str(),
                     F.ReproFile.c_str());
        return 2;
      }
    }
  }

  if (!Opts.JsonPath.empty()) {
    if (Opts.JsonPath == "-") {
      std::fwrite(Json.data(), 1, Json.size(), stdout);
      std::fputc('\n', stdout);
    } else if (!writeFile(Opts.JsonPath, Json + "\n")) {
      std::fprintf(stderr, "cannot write %s\n", Opts.JsonPath.c_str());
      return 2;
    }
  }

  if (!Opts.Quiet) {
    std::fputs(Report.summary().c_str(), stdout);
    std::fputc('\n', stdout);
  }
  return Report.clean() ? 0 : 1;
}
