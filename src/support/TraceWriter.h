//===- support/TraceWriter.h - Chrome trace-event sink ----------*- C++ -*-===//
///
/// \file
/// A thread-safe collector of Chrome trace events ("X" complete events)
/// serialized in the chrome://tracing / Perfetto JSON object format:
///
///   {"traceEvents":[{"name":"ssa-build","cat":"pipeline","ph":"X",
///     "ts":123,"dur":45,"pid":0,"tid":2,
///     "args":{"unit":"gen-3","function":"f0"}}, ...],
///    "displayTimeUnit":"ms"}
///
/// Timestamps are microseconds since the writer's construction (one shared
/// steady-clock epoch, so events from all workers land on one timeline) and
/// tids are small dense ids handed out in first-batch order, one per OS
/// thread, so each worker gets its own track in the viewer. Events arrive
/// only from publish() (support/Stats.h), one batch per staging list.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_TRACEWRITER_H
#define FCC_SUPPORT_TRACEWRITER_H

#include "support/Timer.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace fcc {

/// One recorded complete event.
struct TraceEvent {
  std::string Name;
  std::string Category;
  uint64_t TsMicros = 0;  ///< Start, relative to the writer's epoch.
  uint64_t DurMicros = 0; ///< Duration.
  unsigned Tid = 0;       ///< Dense per-thread track id.
  std::string Unit;       ///< args.unit ("" omits it).
  std::string Function;   ///< args.function ("" omits it).
};

/// Thread-safe trace-event collector. Collect batches with appendEvents(),
/// then serialize once with toJson()/writeFile().
class TraceWriter {
public:
  TraceWriter() : EpochNanos(steadyNanos()) {}

  /// steadyNanos() at construction; TsMicros counts from here.
  uint64_t epochNanos() const { return EpochNanos; }

  /// Moves a batch in under one lock, stamping every event with the
  /// calling thread's track id. \p Batch is left empty.
  void appendEvents(std::vector<TraceEvent> &&Batch);

  /// Snapshot of everything recorded so far.
  std::vector<TraceEvent> events() const;

  /// The full trace as a JSON object (see the file comment for the shape).
  std::string toJson() const;

  /// Serializes to \p Path; false (with \p Error set) on I/O failure.
  bool writeFile(const std::string &Path, std::string &Error) const;

private:
  mutable std::mutex Mu;
  std::vector<TraceEvent> Events;
  std::map<std::thread::id, unsigned> ThreadIds;
  uint64_t EpochNanos;
};

} // namespace fcc

#endif // FCC_SUPPORT_TRACEWRITER_H
