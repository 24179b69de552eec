//===- perfbench/src/main.cpp - The repository benchmark ------------------===//
//
// fcc-perfbench --workload NAME --seed N --seconds S --trace 0|1
//               [--spans FILE]
//
// One process, one thread, one closed-loop caller: builds the workload from
// the seed (timed as set-up), warms up, then sends the workload's request
// stream to CompilationService::compileOne pass after pass for S seconds.
// One more pass keeps the rewritten text of every request, and the oracle
// parses, verifies and interprets it against the reference run of the
// unoptimised input.
//
// With --trace 0 the last stdout line carries the end-to-end metrics. With
// --trace 1 untraced passes (the baseline) alternate with traced passes
// through the layer-by-layer replica (TracedCompile.h), and the line
// carries the per-layer metrics. A layer table goes to stderr; --spans
// writes the spans of the last traced pass as a Chrome trace.
//
// Exit status: 0 when every unit compiled and matched the reference, 1 when
// any failed (the result line is still printed), 2 on usage or set-up
// errors (no result line).
//
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "TracedCompile.h"
#include "Workloads.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "server/ResultCache.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

using namespace fcc;
using namespace perfbench;

namespace {

constexpr int SetupRepetitions = 7;
constexpr double WarmupSeconds = 1.5;
constexpr unsigned MinWarmupPasses = 2;
/// The daemon-mix cache budget as a share of the stream's working set.
constexpr double CacheBudgetShare = 0.75;
/// Largest share of the untraced pass the traced layer sum may miss or
/// exceed (the widest end-to-end bound in BENCHMARK.json).
constexpr double ReconcileBound = 0.25;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansPath;
};

int usage(const char *Msg) {
  std::fprintf(stderr,
               "fcc-perfbench: %s\nusage: fcc-perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
               Msg);
  return 2;
}

bool parseOptions(int Argc, char **Argv, Options &O) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string Value = Argv[++I];
    char *End = nullptr;
    if (Flag == "--workload") {
      O.Workload = Value;
    } else if (Flag == "--seed") {
      O.Seed = std::strtoull(Value.c_str(), &End, 10);
      if (*End)
        return false;
    } else if (Flag == "--seconds") {
      O.Seconds = std::strtod(Value.c_str(), &End);
      if (*End || O.Seconds <= 0 || O.Seconds > 120)
        return false;
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return false;
      O.Trace = Value == "1";
    } else if (Flag == "--spans") {
      O.SpansPath = Value;
    } else {
      return false;
    }
  }
  return !O.Workload.empty();
}

/// Peak resident set of this process image. VmHWM restarts at exec, while
/// getrusage's ru_maxrss keeps the larger footprint of the launching
/// process (a Python wrapper, say), so it is the fallback only.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In kB.
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

/// The CPUs this process may run on.
std::vector<int> allowedCpus() {
  std::vector<int> Cpus;
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Moves the calling thread to \p Cpu. On a shared host each CPU carries
/// its own share of other tenants' load, and a thread left alone can sit on
/// a busy one for a whole run; rotating passes across the CPUs lets the
/// quiet passes come from whichever CPU is least contended at the time.
void pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  sched_setaffinity(0, sizeof(Set), &Set);
}

/// One untraced pass over the request stream.
struct PassResult {
  uint64_t WallNs = 0;
  std::vector<uint64_t> UnitNs;
  std::vector<UnitReport> Reports; // Kept only when asked.
  unsigned NotOk = 0;
  uint64_t Instructions = 0;
  // Cached workloads: compileOne time and count by resolved class.
  std::map<RequestClass, uint64_t> ClassNs;
  std::map<RequestClass, uint64_t> ClassCount;
  uint64_t Evictions = 0;
  size_t OccupancyBytes = 0;
};

class Bench {
public:
  explicit Bench(const Workload &W) : W(W) {}

  size_t CacheBudget = ~size_t(0);

  ResultCache::Options cacheOptions() const {
    ResultCache::Options C;
    C.ByteBudget = CacheBudget;
    // One shard: eviction order then depends only on the request order and
    // entry sizes, never on key bits, so the traced replica (with its own
    // keys) resolves every request exactly as the service does.
    C.Shards = 1;
    return C;
  }

  PassResult runPass(bool KeepReports, bool WantRewritten = false) const {
    PassResult P;
    ServiceOptions SO = W.Service;
    SO.WantRewritten = SO.WantRewritten || WantRewritten;
    std::optional<ResultCache> Cache;
    if (W.UsesCache) {
      Cache.emplace(cacheOptions());
      SO.Cache = &*Cache;
    }
    CompilationService Svc(SO);
    P.UnitNs.resize(W.Inputs.size());
    if (KeepReports)
      P.Reports.resize(W.Inputs.size());
    uint64_t PassStart = nowNs();
    for (unsigned I = 0; I != W.Inputs.size(); ++I) {
      uint64_t T0 = nowNs();
      UnitReport R = Svc.compileOne(W.Inputs[I], I, nullptr);
      uint64_t Ns = nowNs() - T0;
      P.UnitNs[I] = Ns;
      P.NotOk += !R.ok();
      P.Instructions += W.Units[W.Stream[I].Unit].Instructions;
      if (W.UsesCache) {
        RequestClass C =
            R.FromCache ? W.Stream[I].Expected : RequestClass::Miss;
        P.ClassNs[C] += Ns;
        ++P.ClassCount[C];
      }
      if (KeepReports)
        P.Reports[I] = std::move(R);
    }
    P.WallNs = nowNs() - PassStart;
    if (Cache) {
      ResultCache::Occupancy Occ = Cache->occupancy();
      P.Evictions = Occ.Evictions;
      P.OccupancyBytes = Occ.Bytes;
    }
    return P;
  }

private:
  const Workload &W;
};

/// What the oracle found over one kept pass.
struct OracleResult {
  unsigned Failed = 0;
  std::vector<std::string> Errors;
  uint64_t StaticCopies = 0;
  uint64_t DynamicCopies = 0;
  uint64_t DynamicInsts = 0;
  uint64_t DynamicSpillOps = 0;
  size_t PeakPassBytes = 0;
};

bool sameExecution(const ExecutionResult &A, const ExecutionResult &B) {
  return A.Completed == B.Completed && A.ReturnValue == B.ReturnValue &&
         A.FinalMemory == B.FinalMemory;
}

/// Checks every request of \p P (which must have kept its reports with
/// rewritten text). Quality counts are summed once per distinct unit.
OracleResult checkOutputs(const Workload &W, const PassResult &P) {
  OracleResult O;
  struct Checked {
    bool Ok;
    ExecutionResult Exec;
  };
  std::unordered_map<std::string, Checked> ByText;
  std::vector<bool> Counted(W.Units.size(), false);
  auto Fail = [&](unsigned I, const std::string &Why) {
    ++O.Failed;
    if (O.Errors.size() < 5)
      O.Errors.push_back(W.Inputs[I].Name + ": " + Why);
  };
  for (unsigned I = 0; I != P.Reports.size(); ++I) {
    const UnitReport &R = P.Reports[I];
    const BenchUnit &U = W.Units[W.Stream[I].Unit];
    if (!R.ok()) {
      Fail(I, std::string(unitStatusName(R.Status)) + ": " + R.Error);
      continue;
    }
    auto It = ByText.find(R.RewrittenText);
    if (It == ByText.end()) {
      Checked C{false, {}};
      std::string Error;
      std::unique_ptr<Module> M = parseModule(R.RewrittenText, Error);
      if (M && M->size() == 1 && verifyFunction(*M->functions()[0], Error)) {
        C.Exec = benchInterpreter().run(*M->functions()[0], U.Args);
        C.Ok = sameExecution(C.Exec, U.Reference);
      }
      It = ByText.emplace(R.RewrittenText, std::move(C)).first;
    }
    if (!It->second.Ok) {
      Fail(I, "rewritten code does not reproduce the reference result");
      continue;
    }
    for (const FunctionRecord &F : R.Functions)
      O.PeakPassBytes = std::max(O.PeakPassBytes, F.Compile.PeakBytes);
    if (Counted[W.Stream[I].Unit])
      continue;
    Counted[W.Stream[I].Unit] = true;
    for (const FunctionRecord &F : R.Functions)
      O.StaticCopies += F.Compile.StaticCopies;
    O.DynamicCopies += It->second.Exec.CopiesExecuted;
    O.DynamicInsts += It->second.Exec.InstructionsExecuted;
    O.DynamicSpillOps += It->second.Exec.SpillOpsExecuted;
  }
  return O;
}

/// Collects metrics in output order and renders the result line.
class MetricSink {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Items.push_back({Name, Buf, Unit});
  }
  void addCount(const std::string &Name, uint64_t Value, const char *Unit) {
    Items.push_back({Name, std::to_string(Value), Unit});
  }
  std::string json(bool Correct, uint64_t Attempted, uint64_t Failed) const {
    std::string Out = "{\"correct\": ";
    Out += Correct ? "true" : "false";
    Out += ", \"attempted\": " + std::to_string(Attempted);
    Out += ", \"failed\": " + std::to_string(Failed) + ", \"metrics\": {";
    for (size_t I = 0; I != Items.size(); ++I)
      Out += (I ? ", \"" : "\"") + Items[I].Name + "\": {\"value\": " +
             Items[I].Value + ", \"unit\": \"" + Items[I].Unit + "\"}";
    return Out + "}}";
  }
  void print(FILE *To) const {
    for (const Item &I : Items)
      std::fprintf(To, "  %-28s %18s %s\n", I.Name.c_str(), I.Value.c_str(),
                   I.Unit);
  }

private:
  struct Item {
    std::string Name;
    std::string Value;
    const char *Unit;
  };
  std::vector<Item> Items;
};

/// Medians over traced passes, by span name, plus the reconciliation sums.
struct TraceSummary {
  std::map<std::string, double> SelfNs;
  double LayerSumNs = 0;
  double TracedWallNs = 0;
  LayerCounters Counters;
  unsigned Mismatches = 0;
  std::vector<std::string> Errors;
};

bool isLayerSpan(const std::string &Name) {
  return Name != RootSpan && Name.rfind(CheckSpanPrefix, 0) != 0;
}

/// The traced passes of a --trace 1 run. They alternate with the untraced
/// passes, so a slow phase of the host hits both sides of the
/// reconciliation alike.
class Tracer {
public:
  /// \p Expected holds compileOne's reports, with rewritten text, for the
  /// same stream.
  Tracer(const Workload &W, const Bench &B, const PassResult &Expected)
      : W(W), B(B), Expected(Expected) {}

  /// One traced pass; every request must match compileOne's output.
  void runPass() {
    Spans.clear();
    Out.Counters = LayerCounters();
    std::optional<ResultCache> Cache;
    if (W.UsesCache)
      Cache.emplace(B.cacheOptions());
    TracedService Svc(W.Service, Cache ? &*Cache : nullptr, Spans,
                      Out.Counters);
    for (unsigned I = 0; I != W.Inputs.size(); ++I) {
      TracedOutcome T = Svc.compile(W.Inputs[I], I);
      const UnitReport &R = Expected.Reports[I];
      std::string Why;
      if (!T.Ok)
        Why = "traced compile failed: " + T.Error;
      else if (T.Rewritten != R.RewrittenText)
        Why = "traced rewritten text differs from compileOne's";
      else if (T.FromCache != R.FromCache)
        Why = "traced cache resolution differs from compileOne's";
      if (!Why.empty()) {
        ++Out.Mismatches;
        if (Out.Errors.size() < 5)
          Out.Errors.push_back(W.Inputs[I].Name + ": " + Why);
      }
    }
    PassSelf.push_back(selfTimeByName(Spans.spans()));
    double Wall = 0;
    for (const Span &S : Spans.spans())
      if (S.Parent < 0)
        Wall += S.EndNs - S.StartNs;
    Walls.push_back(Wall);
  }

  /// Medians over the quiet traced passes, like the untraced baseline; also
  /// writes the last pass's spans to \p SpansPath when set.
  TraceSummary summarize(const std::string &SpansPath) {
    std::map<std::string, std::vector<double>> Self;
    std::vector<double> LayerSums, QuietWalls;
    for (size_t Q : quietPasses(Walls, 0, 0)) {
      double LayerSum = 0;
      for (const auto &[Name, Ns] : PassSelf[Q]) {
        Self[Name].push_back(static_cast<double>(Ns));
        if (isLayerSpan(Name))
          LayerSum += Ns;
      }
      LayerSums.push_back(LayerSum);
      QuietWalls.push_back(Walls[Q]);
    }
    for (auto &[Name, V] : Self)
      Out.SelfNs[Name] = median(V);
    Out.LayerSumNs = median(LayerSums);
    Out.TracedWallNs = median(QuietWalls);
    if (!SpansPath.empty()) {
      std::ofstream F(SpansPath);
      F << spansToChromeTrace(Spans.spans());
    }
    return Out;
  }

private:
  const Workload &W;
  const Bench &B;
  const PassResult &Expected;
  TraceSummary Out;
  std::vector<double> Walls;
  std::vector<std::map<std::string, uint64_t>> PassSelf;
  SpanRecorder Spans;
};

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseOptions(Argc, Argv, O))
    return usage("bad arguments");

  // Set-up: generate, print, interpret the reference; repeated, median
  // reported. The previous copy is freed outside the timed region.
  Workload W;
  std::vector<double> SetupS;
  for (int R = 0; R != SetupRepetitions; ++R) {
    Workload Fresh;
    std::string Error;
    uint64_t T0 = nowNs();
    bool Ok = buildWorkload(O.Workload, O.Seed, Fresh, Error);
    SetupS.push_back((nowNs() - T0) / 1e9);
    if (!Ok)
      return usage(Error.c_str());
    W = std::move(Fresh);
  }

  Bench B(W);
  // Warm-up. For the cached workload the first pass runs on an unbounded
  // cache to size the working set; the budget then sits below it.
  uint64_t WarmStart = nowNs();
  for (unsigned Pass = 0;
       Pass < MinWarmupPasses || (nowNs() - WarmStart) / 1e9 < WarmupSeconds;
       ++Pass) {
    PassResult P = B.runPass(false);
    if (W.UsesCache && Pass == 0)
      B.CacheBudget = static_cast<size_t>(P.OccupancyBytes * CacheBudgetShare);
  }

  // The oracle pass keeps every request's rewritten text. A traced run
  // needs it up front to check the traced passes against.
  PassResult Kept;
  std::optional<Tracer> Traced;
  if (O.Trace) {
    Kept = B.runPass(true, /*WantRewritten=*/true);
    Traced.emplace(W, B, Kept);
  }

  // Timed passes; when tracing, they are the untraced baseline and
  // alternate with traced passes.
  std::vector<PassResult> Passes;
  std::vector<double> PassWallNs;
  uint64_t Attempted = 0, Failed = 0;
  const std::vector<int> Cpus = allowedCpus();
  uint64_t TimedStart = nowNs();
  do {
    if (!Cpus.empty())
      pinTo(Cpus[Passes.size() % Cpus.size()]);
    Passes.push_back(B.runPass(false));
    PassWallNs.push_back(static_cast<double>(Passes.back().WallNs));
    Attempted += Passes.back().UnitNs.size();
    Failed += Passes.back().NotOk;
    if (Traced)
      Traced->runPass();
  } while ((nowNs() - TimedStart) / 1e9 < O.Seconds);
  double RssMb = peakRssMb();

  // Pass-level timings come from the quiet passes. Per-call timings take
  // each request's own quiet calls across the passes, as many per request
  // as keep 100 samples in the pool, so ten lie beyond p90.
  std::vector<size_t> Quiet = quietPasses(PassWallNs, 1, 0);
  std::vector<double> UnitMs, PassNs;
  const size_t PerRequest = (100 + W.Inputs.size() - 1) / W.Inputs.size();
  for (size_t I = 0; I != W.Inputs.size(); ++I) {
    std::vector<double> Calls;
    for (const PassResult &P : Passes)
      Calls.push_back(static_cast<double>(P.UnitNs[I]));
    for (size_t Q : quietPasses(Calls, 1, PerRequest))
      UnitMs.push_back(Calls[Q] / 1e6);
  }
  std::map<RequestClass, std::vector<double>> ClassNs;
  uint64_t QuietInsts = 0, QuietWallNs = 0;
  for (size_t Q : Quiet) {
    const PassResult &P = Passes[Q];
    uint64_t UnitSum = 0;
    for (uint64_t Ns : P.UnitNs)
      UnitSum += Ns;
    PassNs.push_back(static_cast<double>(UnitSum));
    QuietInsts += P.Instructions;
    QuietWallNs += P.WallNs;
    for (RequestClass C : {RequestClass::Miss, RequestClass::TextHit,
                           RequestClass::StructHit}) {
      auto It = P.ClassNs.find(C);
      ClassNs[C].push_back(It == P.ClassNs.end() ? 0.0 : It->second);
    }
  }
  // Cache behaviour repeats exactly pass to pass; take the last pass's.
  std::map<RequestClass, uint64_t> ClassCount = Passes.back().ClassCount;
  uint64_t Evictions = Passes.back().Evictions;
  size_t Occupancy = Passes.back().OccupancyBytes;

  if (!O.Trace)
    Kept = B.runPass(true, /*WantRewritten=*/true);
  Attempted += Kept.UnitNs.size();
  OracleResult Oracle = checkOutputs(W, Kept);
  Failed += Oracle.Failed;
  for (const std::string &E : Oracle.Errors)
    std::fprintf(stderr, "fcc-perfbench: FAIL %s\n", E.c_str());

  // The end-to-end percentiles need ten samples beyond p90.
  if (!O.Trace && samplesBeyond(UnitMs.size(), 90) < 10) {
    std::fprintf(stderr,
                 "fcc-perfbench: %zu samples leave fewer than ten beyond "
                 "p90; run longer\n",
                 UnitMs.size());
    return 2;
  }

  MetricSink Metrics;
  std::fprintf(stderr,
               "fcc-perfbench: workload %s seed %llu: %zu units, %zu "
               "requests/pass, %zu timed passes, %zu quiet, %zu unit "
               "samples, fail_rate %.6f\n",
               W.Name.c_str(), static_cast<unsigned long long>(O.Seed),
               W.Units.size(), W.Inputs.size(), Passes.size(), Quiet.size(),
               UnitMs.size(), Attempted ? double(Failed) / Attempted : 0.0);

  if (!O.Trace) {
    Metrics.add("setup_s", median(SetupS), "s");
    Metrics.add("insts_per_s", QuietInsts / (QuietWallNs / 1e9), "instr/s");
    Metrics.add("unit_ms_p50", percentile(UnitMs, 50), "ms");
    Metrics.add("unit_ms_p90", percentile(UnitMs, 90), "ms");
    Metrics.add("peak_rss_mb", RssMb, "MB");
    Metrics.add("peak_pass_kb", Oracle.PeakPassBytes / 1024.0, "KB");
    Metrics.addCount("static_copies", Oracle.StaticCopies, "count");
    Metrics.addCount("dynamic_copies", Oracle.DynamicCopies, "count");
    Metrics.addCount("dynamic_insts", Oracle.DynamicInsts, "count");
  } else {
    TraceSummary T = Traced->summarize(O.SpansPath);
    Failed += T.Mismatches;
    for (const std::string &E : T.Errors)
      std::fprintf(stderr, "fcc-perfbench: FAIL %s\n", E.c_str());
    double Untraced = median(PassNs);
    double Residual = 1.0 - T.LayerSumNs / Untraced;
    if (std::abs(Residual) > ReconcileBound) {
      ++Failed;
      std::fprintf(stderr,
                   "fcc-perfbench: FAIL traced layer sum %.3f ms does not "
                   "reconcile with the untraced pass %.3f ms\n",
                   T.LayerSumNs / 1e6, Untraced / 1e6);
    }
    auto Self = [&](std::initializer_list<const char *> Names) {
      double Sum = 0;
      for (const char *N : Names)
        Sum += T.SelfNs.count(N) ? T.SelfNs.at(N) : 0;
      return Sum;
    };
    const LayerCounters &C = T.Counters;
    Metrics.add("ir.parse_ns", Self({"ir.parse"}), "ns");
    Metrics.addCount("ir.parse_insts", C.ParseInsts, "count");
    Metrics.add("ir.verify_ns", Self({"ir.verify"}), "ns");
    Metrics.add("ir.print_ns", Self({"ir.print", "bench.print"}), "ns");
    Metrics.add("ir.free_ns", Self({"ir.free"}), "ns");
    Metrics.add("analysis.split_ns", Self({"analysis.split"}), "ns");
    Metrics.add("analysis.domtree_ns", Self({"analysis.domtree"}), "ns");
    Metrics.add("analysis.liveness_ns", Self({"analysis.liveness"}), "ns");
    Metrics.add("analysis.liveness_kb_max", C.LivenessBytesMax / 1024.0,
                "KB");
    Metrics.add("ssa.build_ns", Self({"ssa.build"}), "ns");
    Metrics.addCount("ssa.phis", C.SsaPhis, "count");
    Metrics.addCount("ssa.copies_folded", C.SsaCopiesFolded, "count");
    Metrics.addCount("ssa.names_created", C.SsaNamesCreated, "count");
    Metrics.add("ssa.peak_kb_max", C.SsaPeakBytesMax / 1024.0, "KB");
    Metrics.add("opt.passes_ns", Self({"opt.passes"}), "ns");
    Metrics.add("opt.reanalyse_ns", Self({"opt.reanalyse"}), "ns");
    Metrics.addCount("opt.sccp_copies", C.SccpCopies, "count");
    Metrics.addCount("opt.insts_removed", C.InstsRemoved, "count");
    Metrics.addCount("opt.pre_hoisted", C.PreHoisted, "count");
    Metrics.add("coalesce.partition_ns", Self({"coalesce.partition"}), "ns");
    Metrics.add("coalesce.rewrite_ns", Self({"coalesce.rewrite"}), "ns");
    Metrics.addCount("coalesce.phi_operands", C.PhiOperands, "count");
    Metrics.addCount("coalesce.copies_inserted", C.CopiesInserted, "count");
    Metrics.add("coalesce.copy_elim_ratio",
                C.PhiOperands ? 1.0 - double(C.CopiesInserted) / C.PhiOperands
                              : 0.0,
                "ratio");
    Metrics.addCount("coalesce.evictions", C.Evictions, "count");
    Metrics.addCount("coalesce.rounds", C.CoalesceRounds, "count");
    Metrics.add("coalesce.peak_kb_max", C.CoalescePeakBytesMax / 1024.0,
                "KB");
    Metrics.add("regalloc.spill_rewrite_ns", Self({"regalloc.spill_rewrite"}),
                "ns");
    Metrics.addCount("regalloc.rounds", C.RegallocRounds, "count");
    Metrics.add("regalloc.first_round_frac",
                C.AllocatedFunctions
                    ? double(C.FirstRoundFunctions) / C.AllocatedFunctions
                    : 0.0,
                "ratio");
    Metrics.addCount("regalloc.spill_stores", C.SpillStores, "count");
    Metrics.addCount("regalloc.reloads", C.Reloads, "count");
    Metrics.addCount("regalloc.ranges_split", C.RangesSplit, "count");
    Metrics.addCount("regalloc.dynamic_spill_ops", Oracle.DynamicSpillOps,
                     "count");
    uint64_t TextHits = ClassCount[RequestClass::TextHit];
    uint64_t StructHits = ClassCount[RequestClass::StructHit];
    uint64_t Misses = ClassCount[RequestClass::Miss];
    uint64_t Requests = TextHits + StructHits + Misses;
    Metrics.addCount("server.text_hits", TextHits, "count");
    Metrics.addCount("server.struct_hits", StructHits, "count");
    Metrics.addCount("server.misses", Misses, "count");
    Metrics.add("server.hit_rate",
                Requests ? double(TextHits + StructHits) / Requests : 0.0,
                "ratio");
    Metrics.addCount("server.evictions", Evictions, "count");
    Metrics.add("server.occupancy_kb", Occupancy / 1024.0, "KB");
    Metrics.add("server.cache_ns",
                Self({"server.text_lookup", "server.hash", "server.lookup",
                      "server.serve", "server.publish"}),
                "ns");
    Metrics.add("server.text_hit_ns", median(ClassNs[RequestClass::TextHit]),
                "ns");
    Metrics.add("server.struct_hit_ns",
                median(ClassNs[RequestClass::StructHit]), "ns");
    Metrics.add("server.miss_ns", median(ClassNs[RequestClass::Miss]), "ns");
    Metrics.add("service.residual_frac", Residual, "ratio");
    Metrics.add("trace.overhead_frac", T.TracedWallNs / Untraced - 1.0,
                "ratio");

    // The layer table: self time by layer, largest first.
    std::map<std::string, double> ByLayer;
    for (const auto &[Name, Ns] : T.SelfNs)
      if (isLayerSpan(Name))
        ByLayer[Name.substr(0, Name.find('.'))] += Ns;
    std::vector<std::pair<double, std::string>> Rows;
    for (const auto &[Layer, Ns] : ByLayer)
      Rows.push_back({Ns, Layer});
    std::sort(Rows.rbegin(), Rows.rend());
    std::fprintf(stderr,
                 "fcc-perfbench: untraced pass %.3f ms, traced %.3f ms, "
                 "layer sum %.3f ms\n",
                 Untraced / 1e6, T.TracedWallNs / 1e6, T.LayerSumNs / 1e6);
    for (const auto &[Ns, Layer] : Rows) {
      std::fprintf(stderr, "  layer %-22s %10.3f ms  %5.1f%%\n",
                   Layer.c_str(), Ns / 1e6, 100 * Ns / Untraced);
      for (const auto &[Name, SpanNs] : T.SelfNs)
        if (Name.compare(0, Layer.size() + 1, Layer + ".") == 0)
          std::fprintf(stderr, "    %-26s %10.3f ms  %5.1f%%\n", Name.c_str(),
                       SpanNs / 1e6, 100 * SpanNs / Untraced);
    }
  }
  Metrics.print(stderr);

  bool Correct = Failed == 0;
  std::printf("%s\n", Metrics.json(Correct, Attempted, Failed).c_str());
  return Correct ? 0 : 1;
}
