//===- service/BatchReport.h - Batch compilation results --------*- C++ -*-===//
///
/// \file
/// Result types for the compilation service. Reports are keyed by unit
/// index, never by completion order, so the aggregate over a corpus is
/// identical whether it was compiled on one thread or eight. The JSON
/// serialization keeps a fixed key order and, in deterministic mode, omits
/// the only nondeterministic fields (wall-clock timings and the job count),
/// which makes byte-level report comparison a valid determinism check.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SERVICE_BATCHREPORT_H
#define FCC_SERVICE_BATCHREPORT_H

#include "interp/Interpreter.h"
#include "pipeline/Pipeline.h"
#include "support/JsonEscape.h"
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fcc {

/// How one work unit ended.
enum class UnitStatus {
  Ok,             ///< Compiled (and, if requested, checked/executed).
  ReadError,      ///< The unit's file could not be read.
  ParseError,     ///< The textual IR did not parse.
  VerifyError,    ///< The input module did not verify.
  NotStrict,      ///< A use may precede every definition (Definition 2.1).
  BudgetExceeded, ///< Instruction or time budget exhausted.
  CheckFailed,    ///< CoalescingChecker refuted the partition.
  OutputInvalid,  ///< The rewritten code did not verify.
  Cancelled,      ///< The batch was cancelled before this unit ran.
  InternalError,  ///< The pipeline threw; captured, batch continued.
};

/// Stable lower-case name ("ok", "parse-error", ...).
const char *unitStatusName(UnitStatus Status);

/// One function compiled inside a unit.
struct FunctionRecord {
  std::string Name;
  PipelineResult Compile;
  unsigned InputStaticCopies = 0;
  unsigned InputInstructions = 0;
  /// Valid when the service executed the function.
  bool Executed = false;
  ExecutionResult Exec;
};

/// One work unit's outcome.
struct UnitReport {
  unsigned Index = 0;
  std::string Name;
  std::string Path;
  UnitStatus Status = UnitStatus::Ok;
  /// Diagnostic for any non-Ok status.
  std::string Error;
  /// Wall-clock for the whole unit (read/parse/compile/check/execute).
  uint64_t TotalMicros = 0;
  std::vector<FunctionRecord> Functions;
  /// True when the unit was served from the result cache instead of being
  /// compiled. Deliberately *not* part of the JSON serialization: cached
  /// and compiled traffic must produce byte-identical report entries.
  bool FromCache = false;
  /// The rewritten module text, filled when the service ran with
  /// WantRewritten (the daemon returns it to clients on request). Also
  /// outside the JSON serialization.
  std::string RewrittenText;

  bool ok() const { return Status == UnitStatus::Ok; }
};

/// Appends one unit report as a JSON object: exactly the serialization
/// BatchReport::toJson uses for its "units" array, exposed so the daemon's
/// responses embed byte-identical entries.
void appendUnitJson(std::string &Out, const UnitReport &U,
                    bool IncludeTimings);

/// Deterministic aggregate over a batch (derived from unit reports).
struct BatchTotals {
  unsigned Units = 0;
  unsigned Failed = 0;
  unsigned Functions = 0;
  unsigned InputStaticCopies = 0;
  unsigned StaticCopiesLeft = 0;
  unsigned PhisInserted = 0;
  size_t MaxPeakBytes = 0;
  uint64_t CompileMicros = 0; ///< Sum of per-function pipeline times.
  /// True when any function went through the register-allocation stage;
  /// the spill aggregates below (and their JSON keys) exist only then, so
  /// machine-less reports keep their pre-allocator byte layout.
  bool Allocated = false;
  unsigned SpillStores = 0;
  unsigned Reloads = 0;
  unsigned RangesSplit = 0;
  unsigned MaxRegistersUsed = 0;
  /// Sum of executed Spill/Reload instructions across executed functions.
  uint64_t DynamicSpillOps = 0;
};

/// Everything the service produced for one batch.
struct BatchReport {
  PipelineKind Kind = PipelineKind::New;
  /// Worker threads actually used.
  unsigned Jobs = 1;
  /// Unit reports, indexed by submission order.
  std::vector<UnitReport> Units;
  /// Wall-clock of the whole run.
  uint64_t WallMicros = 0;
  /// Filled when the service ran with CollectStats: per-phase totals and
  /// named counters aggregated across every worker, sorted by name.
  /// Counters and phase call counts are pure functions of the corpus; only
  /// the accumulated microseconds depend on the clock.
  bool HasStats = false;
  std::vector<PhaseTotal> PhaseTotals;
  std::vector<CounterSnapshot> Counters;

  BatchTotals totals() const;

  /// Serializes the report as JSON with a fixed key order. When
  /// \p IncludeTimings is false every timing field and the job count are
  /// omitted and the output is a pure function of the corpus — the form
  /// the determinism tests compare byte-for-byte.
  std::string toJson(bool IncludeTimings = true) const;

  /// Short human-readable summary (one line per failure plus totals).
  std::string summary() const;

  /// The aggregated phase/counter tables as fixed-width text ("" when the
  /// run did not collect stats). With \p IncludeTimings false the
  /// microsecond column is omitted and the text is byte-identical across
  /// job counts — the same determinism contract as toJson.
  std::string statsText(bool IncludeTimings = true) const;
};

} // namespace fcc

#endif // FCC_SERVICE_BATCHREPORT_H
