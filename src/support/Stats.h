//===- support/Stats.h - Metrics registry and phase probes ------*- C++ -*-===//
///
/// \file
/// The observability substrate for the pipelines and the service: a
/// thread-safe registry of named counters and phase timers, plus the RAII
/// PhaseScope probe the passes use to report where time goes. The design
/// rules:
///
///   - Zero cost when disabled. Every sink is a nullable pointer; a
///     PhaseScope whose Instrumentation carries no sinks never reads a
///     clock. Uninstrumented callers (the default) pay nothing, so the
///     paper-comparable timings in PipelineResult stay undisturbed.
///
///   - Deterministic aggregation. Counters and phase call counts are pure
///     functions of the corpus (sums of per-function values, which are
///     scheduling-independent), and every snapshot is sorted by name. Only
///     the accumulated microseconds are wall-clock dependent, and every
///     renderer can omit them (`IncludeTimings = false`), which makes
///     byte-level comparison across --jobs counts a valid determinism
///     check — the same contract BatchReport::toJson follows.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_STATS_H
#define FCC_SUPPORT_STATS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fcc {

class TraceWriter;
struct TraceEvent;

/// One timed phase of one pipeline run. Name points at a static string.
struct PhaseSample {
  const char *Name = "";
  uint64_t Micros = 0;
};

/// A named counter's value at snapshot time.
struct CounterSnapshot {
  std::string Name;
  uint64_t Value = 0;
};

/// A phase's accumulated calls and time at snapshot time.
struct PhaseTotal {
  std::string Name;
  uint64_t Calls = 0;
  uint64_t Micros = 0;
};

/// Thread-safe registry of named counters and phase timers. One registry
/// typically spans one batch run; workers on any thread bump it and the
/// snapshots come out sorted by name.
class StatsRegistry {
public:
  /// Adds \p Delta to the named counter (creating it at zero).
  void bump(const std::string &Counter, uint64_t Delta = 1);

  /// Raises the named counter to at least \p Value — a high-water mark
  /// (used for peak memory). Max is commutative, so like sums it is
  /// deterministic across worker schedules.
  void noteMax(const std::string &Counter, uint64_t Value);

  /// Accounts one execution of \p Phase taking \p Micros.
  void recordPhase(const std::string &Phase, uint64_t Micros);

  /// Counters sorted by name.
  std::vector<CounterSnapshot> counters() const;

  /// Phase totals sorted by name.
  std::vector<PhaseTotal> phases() const;

  void clear();

private:
  struct PhaseAgg {
    uint64_t Calls = 0;
    uint64_t Micros = 0;
  };

  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, PhaseAgg> Phases;
};

/// Fixed-width text table of phase totals and counters, sorted by name.
/// With \p IncludeTimings false the microsecond column is omitted and the
/// text is a pure function of the corpus.
std::string renderStats(const std::vector<PhaseTotal> &Phases,
                        const std::vector<CounterSnapshot> &Counters,
                        bool IncludeTimings);

/// The sinks a pipeline run reports into, plus the labels its trace events
/// carry. All sinks are optional; the struct is cheap to copy per unit and
/// the caller adjusts Function as it walks a module.
struct Instrumentation {
  StatsRegistry *Stats = nullptr;
  TraceWriter *Trace = nullptr;
  /// When set, the fast coalescer narrates every filter rejection and
  /// eviction here as text (fcc-opt --trace, the examples). Narration is
  /// not a timing sink: it leaves active() unchanged.
  std::FILE *Narrate = nullptr;
  /// Optional local staging buffer for trace events. When set, probes
  /// append here lock-free (tids unassigned) and the owner flushes once
  /// with TraceWriter::appendEvents — one lock per unit instead of one per
  /// phase, keeping probe cost out of the timed gaps between phases.
  std::vector<TraceEvent> *TraceBuf = nullptr;
  /// Trace-event labels: the enclosing work unit and current function.
  std::string Unit;
  std::string Function;

  bool active() const { return Stats || Trace; }
};

/// RAII probe timing one phase. On destruction reports to whichever sinks
/// exist: the registry (accumulated), the trace writer (one complete event
/// on the calling thread's track) and/or a per-run sample list. With no
/// sinks at all the probe is inert and reads no clock.
class PhaseScope {
public:
  /// \p Category tags the trace event ("pipeline" for the paper-timed
  /// phases, "setup"/"audit" for work outside them, "coalesce" for
  /// sub-phases nested inside a pipeline phase).
  PhaseScope(const Instrumentation *Instr, const char *Name,
             const char *Category,
             std::vector<PhaseSample> *Samples = nullptr);
  ~PhaseScope();

  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  const Instrumentation *Instr;
  const char *Name;
  const char *Category;
  std::vector<PhaseSample> *Samples;
  bool Active;
  uint64_t TraceStart = 0;
  std::chrono::steady_clock::time_point Start;
};

} // namespace fcc

#endif // FCC_SUPPORT_STATS_H
