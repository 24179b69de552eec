//===- support/Stats.h - Probe records and their one publisher --*- C++ -*-===//
///
/// \file
/// The observability substrate. Every probe (PhaseScope) and counter writes
/// one plain Record to its unit's RecordList, and publish() turns a
/// finished list into all three outputs: the StatsRegistry's phase totals
/// and counters (--stats) and Chrome trace events (--trace). The rules:
///
///   - Zero cost when disabled. A list exists only when a registry or a
///     trace writer will read it; without one a probe reads no clock, so
///     the paper-comparable timings in PipelineResult stay undisturbed.
///   - No locks while compiling. One thread writes a list; publish takes
///     each sink's lock once per list (the service publishes at each
///     unit's one exit, fcc-opt after each function).
///   - Nanoseconds to the end: phase totals are exact sums of the records'
///     nanoseconds, and only the renderers round to microseconds.
///   - Deterministic aggregation. Counters and call counts are sums (or
///     maxima) of per-function values, which are scheduling-independent,
///     and snapshots are sorted by name. Only times depend on the clock,
///     and every renderer can omit them (`IncludeTimings = false`), so
///     byte-level comparison across --jobs counts is a valid determinism
///     check — the same contract BatchReport::toJson follows.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_STATS_H
#define FCC_SUPPORT_STATS_H

#include "support/Timer.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace fcc {

class TraceWriter;

/// One probe's or counter's output. Categories "count" and "max" mark
/// counters: Value is added to counter Name, or raises it to at least Value
/// (a high-water mark). Any other category is a span of Value nanoseconds
/// from StartNs (steadyNanos()) and its trace category: "pipeline" for the
/// paper-timed phases, "setup", "opt" and "regalloc" for top-level work
/// outside that window, "coalesce" for sub-phases nested in a pipeline
/// phase, "audit" for the partition check, "unit" for a whole unit. Name
/// and Category must outlive the list.
struct Record {
  const char *Name;
  const char *Category;
  uint64_t StartNs;
  uint64_t Value;
  /// 1 + the index of the record's function in RecordList::Functions; 0
  /// labels the unit itself.
  uint32_t Function;

  bool is(const char *Cat) const { return std::strcmp(Category, Cat) == 0; }
  bool isCounter() const { return is("count") || is("max"); }
};

/// One unit's staging list: one thread appends, publish() reads it once.
struct RecordList {
  std::vector<Record> Records;
  /// Function labels, in the order the unit compiled them.
  std::vector<std::string> Functions;

  /// Labels the records appended from now on with function \p Name.
  void beginFunction(std::string Name) {
    Functions.push_back(std::move(Name));
  }
  void append(const char *Name, const char *Category, uint64_t StartNs,
              uint64_t Value) {
    Records.push_back({Name, Category, StartNs, Value,
                       static_cast<uint32_t>(Functions.size())});
  }
  void bump(const char *Name, uint64_t Delta = 1) {
    append(Name, "count", 0, Delta);
  }
};

/// What a pipeline run reports into; cheap to copy, and null-safe to pass.
struct Instrumentation {
  /// The unit's staging list; null leaves every probe and counter inert.
  RecordList *Records = nullptr;
  /// When set, the fast coalescer narrates every filter rejection and
  /// eviction here as text (fcc-opt --trace, the examples). Narration
  /// writes no records, so it needs no list.
  std::FILE *Narrate = nullptr;
};

/// \p Instr's staging list, or null.
inline RecordList *recordsOf(const Instrumentation *Instr) {
  return Instr ? Instr->Records : nullptr;
}

/// One top-level phase of one pipeline run. Name points at a static string.
struct PhaseSample {
  const char *Name = "";
  uint64_t Nanos = 0;
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
  uint64_t Nanos = 0;
};

class StatsRegistry;

/// The one writer of the registry and the trace: every span but the
/// "unit" span adds a call and its nanoseconds to the registry's total for
/// its name, every counter record updates its counter, and every span
/// becomes one trace event on the calling thread's track, labelled with
/// \p Unit and the record's function. Either sink may be null; each lock
/// is taken once.
void publish(const RecordList &List, const std::string &Unit,
             StatsRegistry *Registry, TraceWriter *Trace);

/// Thread-safe totals of every published list: named counters and phase
/// timers. One registry typically spans one batch run; workers publish
/// from any thread and the snapshots come out sorted by name.
class StatsRegistry {
public:
  /// Counters sorted by name.
  std::vector<CounterSnapshot> counters() const;

  /// Phase totals sorted by name.
  std::vector<PhaseTotal> phases() const;

private:
  friend void publish(const RecordList &List, const std::string &Unit,
                      StatsRegistry *Registry, TraceWriter *Trace);

  struct PhaseAgg {
    uint64_t Calls = 0;
    uint64_t Nanos = 0;
  };

  mutable std::mutex Mu;
  std::map<std::string, uint64_t, std::less<>> Counters;
  std::map<std::string, PhaseAgg, std::less<>> Phases;
};

/// Fixed-width text table of phase totals (in whole microseconds) and
/// counters, sorted by name. With \p IncludeTimings false the microsecond
/// column is omitted and the text is a pure function of the corpus.
std::string renderStats(const std::vector<PhaseTotal> &Phases,
                        const std::vector<CounterSnapshot> &Counters,
                        bool IncludeTimings);

/// RAII probe: appends one span to its Instrumentation's list on
/// destruction. Without a list it is inert and reads no clock.
class PhaseScope {
public:
  /// \p Category is the span's category (see Record).
  PhaseScope(const Instrumentation *Instr, const char *Name,
             const char *Category)
      : List(recordsOf(Instr)), Name(Name), Category(Category),
        StartNs(List ? steadyNanos() : 0) {}
  ~PhaseScope() {
    if (List)
      List->append(Name, Category, StartNs, steadyNanos() - StartNs);
  }

  PhaseScope(const PhaseScope &) = delete;
  PhaseScope &operator=(const PhaseScope &) = delete;

private:
  RecordList *List;
  const char *Name;
  const char *Category;
  uint64_t StartNs;
};

} // namespace fcc

#endif // FCC_SUPPORT_STATS_H
