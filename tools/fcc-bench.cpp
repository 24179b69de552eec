//===- tools/fcc-bench.cpp - Unified benchmark driver ---------------------===//
//
// One driver for the repository's performance story: named suites of
// benchmarks over the paper pipelines and the allocation-lean support
// structures, measured with an explicit warmup phase and median/MAD over
// repetitions, emitted as a fixed-schema JSON report (BENCH.json) that
// tools/bench_compare.py diffs against bench/baseline.json in CI.
//
//   fcc-bench --suite=ci|smoke [options]
//
//   --suite=NAME   which suite to run (required): 'ci' is the perf gate's
//                  workload, 'smoke' a seconds-long variant for ctest
//   --out=PATH     write the JSON report to PATH ('-' for stdout, default)
//   --warmup=N     override the suite's warmup iterations
//   --repeats=N    override the suite's timed repetitions
//   --quality      measure code quality instead of speed: run every
//                  pipeline x machine configuration over the suite's
//                  routines, allocate registers with spill rewriting,
//                  execute the result, and report the deterministic
//                  quality counters (schema fcc-quality/1 below)
//   --list         print the suite's benchmark names and exit
//
// Schema (fcc-bench/1): ns_median and ns_mad are the run-to-run unstable
// fields.
//
//   {"schema": "fcc-bench/1", "suite": S, "warmup": W, "repeats": R,
//    "benchmarks": [{"name", "workload", "reps", "ns_median", "ns_mad",
//                    "peak_bytes"}, ...]}
//
// Schema (fcc-quality/1): every field is a pure function of the corpus —
// no timings — so the CI quality gate compares rows exactly by default.
// "diverged" counts routines whose post-allocation execution differed from
// the unoptimized reference (must be 0); "alloc_failures" counts routines
// the compilation service failed on, such as a spill rewriter that could
// not converge (must be 0).
//
//   {"schema": "fcc-quality/1", "suite": S, "routines": N,
//    "rows": [{"name", "pipeline", "machine"[, "passes"], "functions",
//              "static_copies", "spill_stores", "reloads", "spill_slots",
//              "ranges_split", "max_registers_used", "dynamic_copies",
//              "dynamic_spill_ops", "diverged", "alloc_failures"}, ...]}
//
// Optimized-pipeline rows carry a "passes" field (the sequence run before
// coalescing, e.g. "sccp,adce,pre"); base rows omit it, keeping their
// bytes identical to the pre-pass-layer schema.
//
// peak_bytes is the deterministic byte footprint of what one iteration
// built; for the server/* rows it is the largest per-function PeakBytes of
// the batch (cache hits report the published record's), for ir/parse the
// bytes of text read and for ir/print the bytes of text written.
//
// Exit status: 0 ok, 1 a quality row diverged or failed to allocate, or a
// server/* batch had a failed unit, 2 usage/setup error.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "baseline/InterferenceGraph.h"
#include "coalesce/DominanceForest.h"
#include "coalesce/FastCoalescer.h"
#include "interp/Interpreter.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "pipeline/Pipeline.h"
#include "regalloc/SpillRewriter.h"
#include "server/ResultCache.h"
#include "service/CompilationService.h"
#include "service/WorkUnit.h"
#include "ssa/SSABuilder.h"
#include "support/Arena.h"
#include "support/ArgParse.h"
#include "support/SparseSet.h"
#include "workload/KernelSuite.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

using namespace fcc;

namespace {

/// Workload knobs one suite fixes for every benchmark.
struct SuiteParams {
  unsigned Warmup;
  unsigned Repeats;
  unsigned PaperRoutines; ///< Prefix of paperSuite() the pipeline runs use.
  unsigned GenBudget;     ///< Generator size budget for structure runs.
};

/// One benchmark: Run performs a single iteration and returns the
/// deterministic byte footprint of the structures it built.
struct Benchmark {
  std::string Name;
  std::string Workload;
  std::function<size_t()> Run;
};

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t medianOf(std::vector<uint64_t> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return Samples[Samples.size() / 2];
}

/// Median absolute deviation: the robust spread the comparator reports
/// alongside the median (a run with high MAD is too noisy to gate on).
uint64_t madOf(const std::vector<uint64_t> &Samples, uint64_t Median) {
  std::vector<uint64_t> Dev;
  Dev.reserve(Samples.size());
  for (uint64_t S : Samples)
    Dev.push_back(S > Median ? S - Median : Median - S);
  return medianOf(std::move(Dev));
}

/// A generated function taken through critical-edge splitting and SSA
/// construction, with the analyses the structure benchmarks consume.
struct SSAFixture {
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  std::unique_ptr<DominatorTree> DT;
  std::unique_ptr<Liveness> LV;

  explicit SSAFixture(unsigned SizeBudget, uint64_t Seed) {
    M = std::make_unique<Module>();
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = SizeBudget;
    Opts.NumVars = 14;
    F = generateProgram(*M, "bench", Opts);
    splitCriticalEdges(*F);
    DT = std::make_unique<DominatorTree>(*F);
    SSABuildOptions BuildOpts;
    BuildOpts.FoldCopies = true;
    buildSSA(*F, *DT, BuildOpts);
    LV = std::make_unique<Liveness>(*F);
  }
};

std::string scaleTag(const SuiteParams &P) {
  return "paper" + std::to_string(P.PaperRoutines) + "/gen" +
         std::to_string(P.GenBudget);
}

/// The work unit the compilation service materializes \p Spec from.
WorkUnit unitFor(const RoutineSpec &Spec) {
  return Spec.Source.empty() ? WorkUnit::fromGenerator(Spec.Name, Spec.GenOpts)
                             : WorkUnit::fromSource(Spec.Name, Spec.Source);
}

/// The largest per-function PeakBytes of a server/* batch. A failed unit
/// throws: a batch that skipped work must not be timed as a fast one.
size_t batchPeakBytes(const BatchReport &R) {
  BatchTotals T = R.totals();
  if (T.Failed != 0)
    throw std::runtime_error(std::to_string(T.Failed) + " of " +
                             std::to_string(T.Units) + " units failed");
  return T.MaxPeakBytes;
}

/// Builds the benchmark list for \p P. Every suite runs the same names so
/// baselines stay comparable; only the workload sizes differ.
std::vector<Benchmark> buildSuite(const SuiteParams &P) {
  std::vector<Benchmark> Benches;
  std::string Tag = scaleTag(P);

  // Table 2's clock: the paper pipelines end to end (materialize + compile)
  // over a deterministic prefix of the paper suite.
  auto AddPipeline = [&](const char *Name, PipelineKind Kind) {
    auto Specs =
        std::make_shared<std::vector<RoutineSpec>>(paperSuite(P.PaperRoutines));
    Benches.push_back({Name, Tag, [Specs, Kind]() -> size_t {
                         size_t Peak = 0;
                         for (const RoutineSpec &Spec : *Specs) {
                           auto M = Spec.materialize();
                           for (auto &F : M->functions()) {
                             PipelineResult R = runPipeline(*F, Kind);
                             Peak = std::max(Peak, R.PeakBytes);
                           }
                         }
                         return Peak;
                       }});
  };
  AddPipeline("pipeline/new", PipelineKind::New);
  AddPipeline("pipeline/standard", PipelineKind::Standard);
  AddPipeline("pipeline/briggs_improved", PipelineKind::BriggsImproved);

  // The textual front end over the same routines: ir/parse reads every
  // routine's text (generated routines as printed) into a Module and frees
  // it, ir/print writes every routine's Module back out.
  {
    auto Texts = std::make_shared<std::vector<std::string>>();
    auto Modules = std::make_shared<std::vector<std::unique_ptr<Module>>>();
    for (const RoutineSpec &Spec : paperSuite(P.PaperRoutines)) {
      Texts->push_back(Spec.Source.empty() ? printModule(*Spec.materialize())
                                           : Spec.Source);
      Modules->push_back(Spec.materialize());
    }
    Benches.push_back({"ir/parse", Tag, [Texts]() -> size_t {
                         size_t Bytes = 0;
                         for (const std::string &Text : *Texts) {
                           std::string Error;
                           if (!parseModule(Text, Error))
                             throw std::runtime_error(Error);
                           Bytes += Text.size();
                         }
                         return Bytes;
                       }});
    Benches.push_back({"ir/print", Tag, [Modules]() -> size_t {
                         size_t Bytes = 0;
                         for (const auto &M : *Modules)
                           Bytes += printModule(*M).size();
                         return Bytes;
                       }});
  }

  // The retrofitted per-function analyses and structures, each over one
  // generated SSA function (guards Tables 1 and 3's structure costs).
  auto Fix = std::make_shared<SSAFixture>(P.GenBudget, /*Seed=*/77);

  // The two liveness solvers over the identical SSA function: solve pins
  // the dense fixed point, sparse_solve the per-variable def-use walk, so
  // one artifact carries the head-to-head the A/B methodology in
  // EXPERIMENTS.md reads off. domtree/build times the dominator builder's
  // default (DSU) path.
  Benches.push_back({"liveness/solve", Tag, [Fix]() -> size_t {
                       Liveness LV(*Fix->F, LivenessAlgorithm::Dense);
                       return LV.bytes();
                     }});

  Benches.push_back({"liveness/sparse_solve", Tag, [Fix]() -> size_t {
                       Liveness LV(*Fix->F, LivenessAlgorithm::Sparse);
                       return LV.bytes();
                     }});

  // The sparse solve above the dense layout's cut-over, where each name's
  // bits cover only the reverse-postorder span it is live in. One size for
  // every suite: the suites' own generator programs stay below the cut-over.
  {
    auto Large = std::make_shared<SSAFixture>(2000, /*Seed=*/77);
    if (!Liveness(*Large->F, LivenessAlgorithm::Sparse).hasSpanLayout())
      throw std::logic_error("liveness/sparse_solve_large: fixture below "
                             "the dense layout's cut-over");
    Benches.push_back({"liveness/sparse_solve_large", "gen2000",
                       [Large]() -> size_t {
                         Liveness LV(*Large->F, LivenessAlgorithm::Sparse);
                         return LV.bytes();
                       }});
  }

  Benches.push_back({"domtree/build", Tag, [Fix]() -> size_t {
                       DominatorTree DT(*Fix->F);
                       return DT.bytes();
                     }});

  Benches.push_back({"coalesce/partition", Tag, [Fix]() -> size_t {
                       FastCoalescer Co(*Fix->F, *Fix->DT, *Fix->LV);
                       Co.computePartition();
                       return Co.stats().PeakBytes;
                     }});

  {
    // One forest member per block: the worst-case single-set forest.
    auto Members = std::make_shared<std::vector<ForestMember>>();
    for (const auto &B : Fix->F->blocks())
      Members->push_back(
          {Fix->F->variable(B->id() % Fix->F->numVariables()), B.get(), 1});
    Benches.push_back({"domforest/build", Tag, [Fix, Members]() -> size_t {
                         DominanceForest DF(*Members, *Fix->DT);
                         return DF.bytes();
                       }});
  }

  Benches.push_back({"igraph/adjacency_build", Tag, [Fix]() -> size_t {
                       InterferenceGraph::BuildOptions Opts;
                       Opts.BuildAdjacencyLists = true;
                       InterferenceGraph G(*Fix->F, *Fix->LV, Opts);
                       return G.bytes();
                     }});

  // The daemon's serving costs: one batch of the paper workload through a
  // cache-attached service, cold (fresh cache every iteration — every unit
  // parses, verifies, compiles and publishes) versus warm (a persistent
  // cache pre-warmed once — every unit is an exact-text hit that skips
  // parsing entirely). Their ratio is the headline warm/cold latency
  // improvement EXPERIMENTS.md tracks.
  {
    auto Units = std::make_shared<std::vector<WorkUnit>>();
    for (const RoutineSpec &Spec : paperSuite(P.PaperRoutines))
      Units->push_back(unitFor(Spec));
    ServiceOptions SO;
    SO.Jobs = 1; // Latency, not throughput: keep the pool out of the tail.

    Benches.push_back({"server/cold_qps", Tag, [Units, SO]() -> size_t {
                         ResultCache Cache(
                             ResultCache::Options{64u << 20, /*Shards=*/4});
                         ServiceOptions Opts = SO;
                         Opts.Cache = &Cache;
                         return batchPeakBytes(
                             CompilationService(Opts).run(*Units));
                       }});

    auto WarmCache = std::make_shared<ResultCache>(
        ResultCache::Options{64u << 20, /*Shards=*/4});
    {
      ServiceOptions Opts = SO;
      Opts.Cache = WarmCache.get();
      CompilationService(Opts).run(*Units); // Pre-warm once, at build time.
    }
    Benches.push_back({"server/warm_qps", Tag,
                       [Units, SO, WarmCache]() -> size_t {
                         ServiceOptions Opts = SO;
                         Opts.Cache = WarmCache.get();
                         return batchPeakBytes(
                             CompilationService(Opts).run(*Units));
                       }});
  }

  // Micro: arena churn in the coalescer's merge pattern — many short
  // arrays, wholesale reset — and sparse-set churn in the scratch-map
  // pattern. Sized off GenBudget so suites scale together.
  unsigned Micro = P.GenBudget * 64;
  Benches.push_back(
      {"arena/churn", "iters" + std::to_string(Micro), [Micro]() -> size_t {
         Arena A(4096);
         for (unsigned Round = 0; Round != 8; ++Round) {
           for (unsigned I = 0; I != Micro; ++I) {
             unsigned *P = A.allocateArray<unsigned>((I % 13) + 2);
             P[0] = I; // touch the memory
           }
           A.reset();
         }
         return A.bytesReserved();
       }});
  Benches.push_back(
      {"sparseset/churn", "iters" + std::to_string(Micro), [Micro]() -> size_t {
         SparseSet S;
         S.resizeUniverse(1024);
         unsigned Hits = 0;
         for (unsigned Round = 0; Round != 8; ++Round) {
           for (unsigned I = 0; I != Micro; ++I) {
             S.insert((I * 7) & 1023);
             Hits += S.contains((I * 13) & 1023);
           }
           S.clear();
         }
         // Fold Hits in so the loop cannot be optimized out.
         return S.bytes() + (Hits & 1);
       }});

  return Benches;
}

/// One pipeline x machine configuration's quality aggregate over the
/// suite (schema fcc-quality/1). Every field is deterministic.
struct QualityRow {
  std::string Name;     ///< "quality/<pipeline>[+<passes>]/<machine>"
  std::string Pipeline; ///< pipelineName()
  std::string Machine;  ///< canonical MachineModel name
  std::string Passes;   ///< passSequenceName(); "" for the base rows
  unsigned Functions = 0;
  uint64_t StaticCopies = 0;
  uint64_t SpillStores = 0;
  uint64_t Reloads = 0;
  uint64_t SpillSlots = 0;
  uint64_t RangesSplit = 0;
  uint64_t MaxRegistersUsed = 0;
  uint64_t DynamicCopies = 0;
  uint64_t DynamicSpillOps = 0;
  /// Routines whose post-allocation execution differed from the
  /// unoptimized reference (return value or completion). Must be 0.
  unsigned Diverged = 0;
  /// Routines whose unit the compilation service failed (e.g. the spill
  /// rewriter did not converge). Must be 0.
  unsigned AllocFailures = 0;
};

/// Runs every pipeline x machine configuration over \p Specs and fills one
/// QualityRow per configuration. The reference execution (unoptimized
/// materialization on the routine's fixed Table 4 arguments) is computed
/// once per routine and compared against every configuration's output.
std::vector<QualityRow> runQualitySuite(const std::vector<RoutineSpec> &Specs) {
  const PipelineKind Kinds[] = {PipelineKind::New, PipelineKind::Standard,
                                PipelineKind::BriggsImproved};
  const char *Machines[] = {"uniform2", "uniform4", "uniform8", "dsp"};

  struct Variant {
    PipelineKind Kind;
    const char *Machine;
    const char *Passes; // passSequenceName spelling; "" = no opt stage
  };
  std::vector<Variant> Variants;
  for (PipelineKind Kind : Kinds)
    for (const char *MachineName : Machines)
      Variants.push_back({Kind, MachineName, ""});
  // Optimized-pipeline rows: pin how the pass layer shifts copy and spill
  // counts. The sccp,adce vs sccp,adce,pre vs pre,sccp,adce trio isolates
  // PRE's contribution and the phase-ordering effect on the same machine;
  // the uniform2 and dsp rows measure how PRE's extended live ranges feed
  // spill pressure and banked allocation; the Standard row keeps the
  // cross-pipeline comparison honest over identical optimized input. The
  // Briggs pipelines reject passes (their live-range webs assume
  // unoptimized SSA), so no optimized Briggs rows exist.
  const Variant OptVariants[] = {
      {PipelineKind::New, "uniform8", "sccp,adce"},
      {PipelineKind::New, "uniform8", "sccp,adce,pre"},
      {PipelineKind::New, "uniform8", "pre,sccp,adce"},
      {PipelineKind::New, "uniform2", "sccp,adce,pre"},
      {PipelineKind::New, "dsp", "sccp,adce,pre"},
      {PipelineKind::Standard, "uniform8", "sccp,adce,pre"},
  };
  Variants.insert(Variants.end(), std::begin(OptVariants),
                  std::end(OptVariants));

  // Reference behavior, once per routine x function.
  struct RefExec {
    bool Completed;
    int64_t ReturnValue;
  };
  std::vector<std::vector<RefExec>> Refs(Specs.size());
  Interpreter Interp;
  for (size_t S = 0; S != Specs.size(); ++S) {
    auto M = Specs[S].materialize();
    for (auto &F : M->functions()) {
      ExecutionResult R = Interp.run(*F, Specs[S].Args);
      Refs[S].push_back({R.Completed, R.ReturnValue});
    }
  }

  std::vector<QualityRow> Rows;
  for (const Variant &V : Variants) {
    MachineModel MM;
    if (!parseMachineModel(V.Machine, MM))
      continue; // Unreachable: the names above are all canonical.
    std::vector<PassKind> Passes;
    if (!parsePassSequence(V.Passes, Passes))
      continue; // Unreachable: the sequences above are all canonical.
    QualityRow Row;
    Row.Pipeline = pipelineName(V.Kind);
    Row.Machine = MM.Name;
    Row.Passes = passSequenceName(Passes);
    Row.Name = "quality/" + Row.Pipeline +
               (Row.Passes.empty() ? "" : "+" + Row.Passes) + "/" +
               Row.Machine;

    // Each routine compiles and executes through the service, the path
    // fcc-batch and fcc-served take.
    for (size_t S = 0; S != Specs.size(); ++S) {
      ServiceOptions SO;
      SO.Pipeline = V.Kind;
      SO.Machine = MM;
      SO.Passes = Passes;
      SO.Execute = true;
      SO.ExecArgs = Specs[S].Args;
      UnitReport U =
          CompilationService(SO).compileOne(unitFor(Specs[S]), 0, nullptr);
      if (!U.ok()) {
        ++Row.AllocFailures;
        continue;
      }
      bool RoutineDiverged = false;
      for (size_t FnIndex = 0; FnIndex != U.Functions.size(); ++FnIndex) {
        const PipelineResult &R = U.Functions[FnIndex].Compile;
        ++Row.Functions;
        Row.StaticCopies += R.StaticCopies;
        Row.SpillStores += R.SpillStores;
        Row.Reloads += R.Reloads;
        Row.SpillSlots += R.SpillSlots;
        Row.RangesSplit += R.RangesSplit;
        Row.MaxRegistersUsed =
            std::max<uint64_t>(Row.MaxRegistersUsed, R.RegistersUsed);

        const ExecutionResult &E = U.Functions[FnIndex].Exec;
        Row.DynamicCopies += E.CopiesExecuted;
        Row.DynamicSpillOps += E.SpillOpsExecuted;
        const RefExec &Ref = Refs[S][FnIndex];
        if (E.Completed != Ref.Completed ||
            (E.Completed && E.ReturnValue != Ref.ReturnValue))
          RoutineDiverged = true;
      }
      Row.Diverged += RoutineDiverged;
    }
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

void writeQualityJson(std::FILE *Out, const std::string &Suite,
                      unsigned Routines,
                      const std::vector<QualityRow> &Rows) {
  std::fprintf(Out,
               "{\"schema\":\"fcc-quality/1\",\"suite\":\"%s\","
               "\"routines\":%u,\"rows\":[",
               Suite.c_str(), Routines);
  for (size_t I = 0; I != Rows.size(); ++I) {
    const QualityRow &R = Rows[I];
    // "passes" appears only on optimized rows, so the base rows stay
    // byte-identical to the pre-pass-layer schema.
    std::string PassesField =
        R.Passes.empty() ? "" : "\"passes\":\"" + R.Passes + "\",";
    std::fprintf(
        Out,
        "%s\n  {\"name\":\"%s\",\"pipeline\":\"%s\",\"machine\":\"%s\","
        "%s\"functions\":%u,"
        "\"static_copies\":%llu,\"spill_stores\":%llu,\"reloads\":%llu,"
        "\"spill_slots\":%llu,\"ranges_split\":%llu,"
        "\"max_registers_used\":%llu,\"dynamic_copies\":%llu,"
        "\"dynamic_spill_ops\":%llu,\"diverged\":%u,\"alloc_failures\":%u}",
        I ? "," : "", R.Name.c_str(), R.Pipeline.c_str(), R.Machine.c_str(),
        PassesField.c_str(), R.Functions,
        static_cast<unsigned long long>(R.StaticCopies),
        static_cast<unsigned long long>(R.SpillStores),
        static_cast<unsigned long long>(R.Reloads),
        static_cast<unsigned long long>(R.SpillSlots),
        static_cast<unsigned long long>(R.RangesSplit),
        static_cast<unsigned long long>(R.MaxRegistersUsed),
        static_cast<unsigned long long>(R.DynamicCopies),
        static_cast<unsigned long long>(R.DynamicSpillOps), R.Diverged,
        R.AllocFailures);
  }
  std::fprintf(Out, "\n]}\n");
}

struct BenchRecord {
  std::string Name;
  std::string Workload;
  unsigned Reps;
  uint64_t NsMedian;
  uint64_t NsMad;
  size_t PeakBytes;
};

BenchRecord measure(const Benchmark &B, unsigned Warmup, unsigned Repeats) {
  for (unsigned I = 0; I != Warmup; ++I)
    B.Run();

  std::vector<uint64_t> Ns;
  size_t PeakBytes = 0;
  for (unsigned I = 0; I != Repeats; ++I) {
    uint64_t T0 = nowNs();
    PeakBytes = B.Run();
    Ns.push_back(nowNs() - T0);
  }

  BenchRecord R;
  R.Name = B.Name;
  R.Workload = B.Workload;
  R.Reps = Repeats;
  R.NsMedian = medianOf(Ns);
  R.NsMad = madOf(Ns, R.NsMedian);
  R.PeakBytes = PeakBytes;
  return R;
}

void writeJson(std::FILE *Out, const std::string &Suite, unsigned Warmup,
               unsigned Repeats, const std::vector<BenchRecord> &Records) {
  std::fprintf(Out,
               "{\"schema\":\"fcc-bench/1\",\"suite\":\"%s\","
               "\"warmup\":%u,\"repeats\":%u,\"benchmarks\":[",
               Suite.c_str(), Warmup, Repeats);
  for (size_t I = 0; I != Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    std::fprintf(Out,
                 "%s\n  {\"name\":\"%s\",\"workload\":\"%s\",\"reps\":%u,"
                 "\"ns_median\":%llu,\"ns_mad\":%llu,\"peak_bytes\":%zu}",
                 I ? "," : "", R.Name.c_str(), R.Workload.c_str(), R.Reps,
                 static_cast<unsigned long long>(R.NsMedian),
                 static_cast<unsigned long long>(R.NsMad), R.PeakBytes);
  }
  std::fprintf(Out, "\n]}\n");
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --suite=ci|smoke [--out=PATH] [--warmup=N] "
               "[--repeats=N]\n"
               "       [--quality] [--list]\n",
               Argv0);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Suite, OutPath = "-";
  std::optional<unsigned> WarmupOverride, RepeatsOverride;
  bool ListOnly = false;
  bool Quality = false;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--suite=", 0) == 0) {
      Suite = Arg.substr(8);
    } else if (Arg.rfind("--out=", 0) == 0) {
      OutPath = Arg.substr(6);
    } else if (Arg.rfind("--warmup=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--warmup=", WarmupOverride.emplace()))
        return 2;
    } else if (Arg.rfind("--repeats=", 0) == 0) {
      if (!parseUnsignedFlag(Arg, "--repeats=", RepeatsOverride.emplace(),
                             /*Min=*/1))
        return 2;
    } else if (Arg == "--quality") {
      Quality = true;
    } else if (Arg == "--list") {
      ListOnly = true;
    } else {
      std::fprintf(stderr, "fcc-bench: unknown argument '%s'\n", Arg.c_str());
      return usage(Argv[0]);
    }
  }

  SuiteParams Params;
  if (Suite == "ci") {
    Params = {/*Warmup=*/3, /*Repeats=*/21, /*PaperRoutines=*/40,
              /*GenBudget=*/200};
  } else if (Suite == "smoke") {
    Params = {/*Warmup=*/1, /*Repeats=*/3, /*PaperRoutines=*/6,
              /*GenBudget=*/60};
  } else {
    std::fprintf(stderr, "fcc-bench: unknown or missing --suite '%s'\n",
                 Suite.c_str());
    return usage(Argv[0]);
  }
  if (WarmupOverride)
    Params.Warmup = *WarmupOverride;
  if (RepeatsOverride)
    Params.Repeats = *RepeatsOverride;

  if (Quality) {
    if (ListOnly) {
      std::fprintf(stderr, "fcc-bench: --quality does not support --list\n");
      return 2;
    }
    std::vector<RoutineSpec> Specs = paperSuite(Params.PaperRoutines);
    std::vector<QualityRow> Rows = runQualitySuite(Specs);

    std::FILE *Out = stdout;
    if (OutPath != "-") {
      Out = std::fopen(OutPath.c_str(), "w");
      if (!Out) {
        std::fprintf(stderr, "fcc-bench: cannot open '%s' for writing\n",
                     OutPath.c_str());
        return 2;
      }
    }
    writeQualityJson(Out, Suite, Params.PaperRoutines, Rows);
    if (Out != stdout)
      std::fclose(Out);

    // A configuration that changed behavior or failed to allocate is wrong
    // regardless of any baseline: fail the run itself, not just the diff.
    for (const QualityRow &R : Rows)
      if (R.Diverged != 0 || R.AllocFailures != 0) {
        std::fprintf(stderr,
                     "fcc-bench: %s: %u diverged, %u allocation failures\n",
                     R.Name.c_str(), R.Diverged, R.AllocFailures);
        return 1;
      }
    return 0;
  }

  std::vector<Benchmark> Benches = buildSuite(Params);
  if (ListOnly) {
    for (const Benchmark &B : Benches)
      std::printf("%s (%s)\n", B.Name.c_str(), B.Workload.c_str());
    return 0;
  }

  std::vector<BenchRecord> Records;
  Records.reserve(Benches.size());
  for (const Benchmark &B : Benches) {
    try {
      Records.push_back(measure(B, Params.Warmup, Params.Repeats));
    } catch (const std::exception &E) {
      std::fprintf(stderr, "fcc-bench: %s: %s\n", B.Name.c_str(), E.what());
      return 1;
    }
  }

  std::FILE *Out = stdout;
  if (OutPath != "-") {
    Out = std::fopen(OutPath.c_str(), "w");
    if (!Out) {
      std::fprintf(stderr, "fcc-bench: cannot open '%s' for writing\n",
                   OutPath.c_str());
      return 2;
    }
  }
  writeJson(Out, Suite, Params.Warmup, Params.Repeats, Records);
  if (Out != stdout)
    std::fclose(Out);
  return 0;
}
