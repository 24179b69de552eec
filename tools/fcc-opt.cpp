//===- tools/fcc-opt.cpp - Command-line driver ----------------------------===//
//
// Standalone driver: read a textual-IR file, run one of the paper's
// SSA-round-trip pipelines over every function, optionally execute, and
// print the result.
//
//   fcc-opt FILE.ir [options]
//
//   --pipeline=new|standard|briggs|briggs*   conversion to run (default new)
//   --machine=uniformN|dsp|embedded
//                     run the register allocator after the pipeline: color
//                     against that machine's banks, inserting spill/reload
//                     code until allocation succeeds
//   --passes=SEQ      comma-separated optimization passes (sccp, adce, pre)
//                     run on the SSA form before coalescing; unknown names
//                     are rejected listing the known passes
//   --ssa-only        stop in SSA form (pruned, copies folded) and print it
//   --no-fold         build SSA without copy folding (with --ssa-only)
//   --strict          insert entry initializations for non-strict inputs
//   --check           validate the coalescer's partition with the
//                     independent CoalescingChecker (new pipeline)
//   --trace           narrate the coalescer's decisions on stderr (new
//                     pipeline)
//   --trace=PATH      write a Chrome trace (chrome://tracing / Perfetto)
//                     of every pipeline phase to PATH
//   --stats           print per-function and per-phase statistics
//   --run ARGS...     execute each function on the integer ARGS
//
// The --pipeline, --machine, --passes, --check and --strict flags are the
// ones fcc-batch and fcc-served share (parseServiceFlag).
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "pipeline/Pipeline.h"
#include "service/CompilationService.h"
#include "ssa/SSABuilder.h"
#include "support/ArgParse.h"
#include "support/Stats.h"
#include "support/TraceWriter.h"

#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace fcc;

namespace {

struct DriverOptions {
  std::string InputPath;
  /// The shared flags: pipeline, machine, passes, --check and --strict.
  ServiceOptions Shared;
  bool SsaOnly = false;
  bool NoFold = false;
  bool Narrate = false;
  bool Stats = false;
  bool Execute = false;
  std::string TracePath;
  std::vector<int64_t> RunArgs;
};

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s FILE.ir [--pipeline=new|standard|briggs|briggs*]\n"
               "       [--machine=uniformN|dsp|embedded] "
               "[--passes=sccp,adce,pre]\n"
               "       [--ssa-only] [--no-fold] [--strict] [--check] "
               "[--trace] [--trace=PATH] [--stats]\n"
               "       [--run ARGS...]\n",
               Argv0);
  return 2;
}

bool parseArgs(int Argc, char **Argv, DriverOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    std::string Error;
    FlagParse Shared = parseServiceFlag(Arg, Opts.Shared, Error);
    if (Shared == FlagParse::Invalid) {
      std::fprintf(stderr, "%s\n", Error.c_str());
      return false;
    }
    if (Shared == FlagParse::Parsed)
      continue;
    if (Arg == "--ssa-only") {
      Opts.SsaOnly = true;
    } else if (Arg == "--no-fold") {
      Opts.NoFold = true;
    } else if (Arg == "--trace") {
      Opts.Narrate = true;
    } else if (Arg.rfind("--trace=", 0) == 0) {
      Opts.TracePath = Arg.substr(std::strlen("--trace="));
    } else if (Arg == "--stats") {
      Opts.Stats = true;
    } else if (Arg == "--run") {
      Opts.Execute = true;
      for (++I; I < Argc; ++I) {
        int64_t Value = 0;
        if (!parseInt64Arg(Argv[I], Value)) {
          std::fprintf(stderr, "bad --run argument '%s'\n", Argv[I]);
          return false;
        }
        Opts.RunArgs.push_back(Value);
      }
    } else if (!Arg.empty() && Arg[0] != '-' && Opts.InputPath.empty()) {
      Opts.InputPath = Arg;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", Arg.c_str());
      return false;
    }
  }
  return !Opts.InputPath.empty();
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return usage(Argv[0]);
  const ServiceOptions &Shared = Opts.Shared;
  std::string Error;
  if (!validateServiceOptions(Shared, Error)) {
    std::fprintf(stderr, "%s\n", Error.c_str());
    return 2;
  }
  if (Opts.SsaOnly && (Shared.CheckPartition || Shared.Machine)) {
    std::fprintf(stderr, "--check and --machine work on the pipeline's "
                         "phi-free output; they cannot be combined with "
                         "--ssa-only\n");
    return 2;
  }

  std::ifstream In(Opts.InputPath);
  if (!In) {
    std::fprintf(stderr, "cannot open '%s'\n", Opts.InputPath.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  std::unique_ptr<Module> M = parseModule(Buffer.str(), Error);
  if (!M) {
    std::fprintf(stderr, "%s: %s\n", Opts.InputPath.c_str(), Error.c_str());
    return 1;
  }

  // Observability: --stats and --trace=PATH read each function's records,
  // published after it compiles; the coalescer's narration behind --trace
  // needs no records.
  StatsRegistry Registry;
  TraceWriter TraceJson;
  RecordList Records;
  Instrumentation Instr;
  if (Opts.Stats || !Opts.TracePath.empty())
    Instr.Records = &Records;
  Instr.Narrate = Opts.Narrate ? stderr : nullptr;

  // Every function meets the compile-input contract before any compiles,
  // so a bad function leaves no partial output, as in compileUnit.
  for (const auto &FPtr : M->functions()) {
    if (Shared.EnforceStrictness)
      enforceStrictness(*FPtr);
    InputFault Fault = checkCompileInput(*FPtr, Error);
    if (Fault != InputFault::None) {
      std::fprintf(stderr, "%s%s\n", Error.c_str(),
                   Fault == InputFault::NotStrict ? "; re-run with --strict"
                                                  : "");
      return 1;
    }
  }

  for (const auto &FPtr : M->functions()) {
    Function &F = *FPtr;
    Records.beginFunction(F.name());
    if (Opts.SsaOnly) {
      splitCriticalEdges(F);
      DominatorTree DT(F);
      SSABuildOptions Build;
      Build.FoldCopies = !Opts.NoFold;
      SSABuildStats Stats = buildSSA(F, DT, Build);
      if (Opts.Stats)
        std::printf("; @%s: %u phis, %u copies folded\n", F.name().c_str(),
                    Stats.PhisInserted, Stats.CopiesFolded);
      if (!Shared.Passes.empty()) {
        PassManagerOptions PM;
        PM.Instr = &Instr;
        PassStats PS = runPassSequence(F, Shared.Passes, PM);
        if (Opts.Stats)
          std::printf("; @%s: passes folded %u consts, forwarded %u copies, "
                      "removed %u insts + %u phis, hoisted %u\n",
                      F.name().c_str(), PS.SccpConstants, PS.SccpCopies,
                      PS.InstsRemoved, PS.PhisRemoved, PS.PreHoisted);
      }
    } else {
      PipelineOptions Pipe = pipelineOptionsFor(Shared);
      Pipe.Instr = &Instr;
      PipelineResult Result;
      try {
        Result = runPipeline(F, Pipe);
      } catch (const PartitionRefuted &E) {
        std::fprintf(stderr, "@%s: coalescing check FAILED: %s\n",
                     F.name().c_str(), E.what());
        return 1;
      } catch (const std::exception &E) {
        std::fprintf(stderr, "@%s: %s\n", F.name().c_str(), E.what());
        return 1;
      }
      if (Opts.Stats) {
        std::printf("; @%s (%s): %u us, %u phis, %u copies left, peak %zu "
                    "bytes\n",
                    F.name().c_str(), pipelineName(Shared.Pipeline),
                    static_cast<unsigned>(Result.TimeMicros),
                    Result.PhisInserted, Result.StaticCopies,
                    Result.PeakBytes);
        if (Shared.CheckPartition)
          std::printf("; @%s: coalescing check passed\n", F.name().c_str());
        if (Result.Allocated)
          std::printf("; @%s: %u registers, %u spill stores, %u reloads, "
                      "%u ranges split, %u regalloc iterations\n",
                      F.name().c_str(), Result.RegistersUsed,
                      Result.SpillStores, Result.Reloads, Result.RangesSplit,
                      Result.RegallocIterations);
        if (!Result.Phases.empty()) {
          std::printf(";   phases:");
          for (const PhaseSample &P : Result.Phases)
            std::printf(" %s %lluus", P.Name,
                        static_cast<unsigned long long>(P.Nanos / 1000));
          std::printf("\n");
        }
      }
    }
    publish(Records, Opts.InputPath, &Registry, &TraceJson);
    Records = RecordList();

    if (!verifyFunction(F, Error)) {
      std::fprintf(stderr, "internal error: output does not verify: %s\n",
                   Error.c_str());
      return 1;
    }
    std::fputs(printFunction(F).c_str(), stdout);
    std::fputc('\n', stdout);

    if (Opts.Execute) {
      ExecutionResult R = Interpreter().run(F, Opts.RunArgs);
      if (!R.Completed) {
        std::printf("; @%s: hit the step limit\n", F.name().c_str());
      } else if (Shared.Machine) {
        std::printf("; @%s(...) = %lld  (%llu instructions, %llu copies, "
                    "%llu spill ops)\n",
                    F.name().c_str(),
                    static_cast<long long>(R.ReturnValue),
                    static_cast<unsigned long long>(R.InstructionsExecuted),
                    static_cast<unsigned long long>(R.CopiesExecuted),
                    static_cast<unsigned long long>(R.SpillOpsExecuted));
      } else {
        std::printf("; @%s(...) = %lld  (%llu instructions, %llu copies)\n",
                    F.name().c_str(),
                    static_cast<long long>(R.ReturnValue),
                    static_cast<unsigned long long>(R.InstructionsExecuted),
                    static_cast<unsigned long long>(R.CopiesExecuted));
      }
    }
  }

  if (Opts.Stats) {
    // The aggregated tables, as IR comments so the output stays parseable.
    std::string Tables =
        renderStats(Registry.phases(), Registry.counters(),
                    /*IncludeTimings=*/true);
    size_t Pos = 0;
    while (Pos < Tables.size()) {
      size_t Eol = Tables.find('\n', Pos);
      std::printf("; %.*s\n", static_cast<int>(Eol - Pos), &Tables[Pos]);
      Pos = Eol + 1;
    }
  }
  if (!Opts.TracePath.empty()) {
    std::string TraceError;
    if (!TraceJson.writeFile(Opts.TracePath, TraceError)) {
      std::fprintf(stderr, "%s\n", TraceError.c_str());
      return 1;
    }
  }
  return 0;
}
