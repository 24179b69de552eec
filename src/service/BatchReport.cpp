//===- service/BatchReport.cpp --------------------------------------------===//

#include "service/BatchReport.h"

#include <algorithm>
#include <cstdio>

using namespace fcc;

const char *fcc::unitStatusName(UnitStatus Status) {
  switch (Status) {
  case UnitStatus::Ok:
    return "ok";
  case UnitStatus::ReadError:
    return "read-error";
  case UnitStatus::ParseError:
    return "parse-error";
  case UnitStatus::VerifyError:
    return "verify-error";
  case UnitStatus::NotStrict:
    return "not-strict";
  case UnitStatus::BudgetExceeded:
    return "budget-exceeded";
  case UnitStatus::CheckFailed:
    return "check-failed";
  case UnitStatus::OutputInvalid:
    return "output-invalid";
  case UnitStatus::Cancelled:
    return "cancelled";
  case UnitStatus::InternalError:
    return "internal-error";
  }
  return "<invalid>";
}

BatchTotals BatchReport::totals() const {
  BatchTotals T;
  T.Units = static_cast<unsigned>(Units.size());
  for (const UnitReport &U : Units) {
    if (!U.ok())
      ++T.Failed;
    for (const FunctionRecord &F : U.Functions) {
      ++T.Functions;
      T.InputStaticCopies += F.InputStaticCopies;
      T.StaticCopiesLeft += F.Compile.StaticCopies;
      T.PhisInserted += F.Compile.PhisInserted;
      T.MaxPeakBytes = std::max(T.MaxPeakBytes, F.Compile.PeakBytes);
      T.CompileMicros += F.Compile.TimeMicros;
      if (F.Compile.Allocated) {
        T.Allocated = true;
        T.SpillStores += F.Compile.SpillStores;
        T.Reloads += F.Compile.Reloads;
        T.RangesSplit += F.Compile.RangesSplit;
        T.MaxRegistersUsed =
            std::max(T.MaxRegistersUsed, F.Compile.RegistersUsed);
        if (F.Executed)
          T.DynamicSpillOps += F.Exec.SpillOpsExecuted;
      }
    }
  }
  return T;
}

namespace {

void appendFunction(std::string &Out, const FunctionRecord &F,
                    bool IncludeTimings) {
  Out += '{';
  appendJsonStr(Out, "name", F.Name);
  Out += ',';
  appendJsonNum(Out, "input_instructions", F.InputInstructions);
  Out += ',';
  appendJsonNum(Out, "input_copies", F.InputStaticCopies);
  Out += ',';
  appendJsonNum(Out, "phis", F.Compile.PhisInserted);
  Out += ',';
  appendJsonNum(Out, "critical_edges_split", F.Compile.CriticalEdgesSplit);
  Out += ',';
  appendJsonNum(Out, "copies_left", F.Compile.StaticCopies);
  Out += ',';
  appendJsonNum(Out, "peak_bytes", F.Compile.PeakBytes);
  if (F.Compile.Allocated) {
    // Allocation columns exist only for machine-targeted runs, so reports
    // without --machine keep their pre-allocator byte layout.
    Out += ',';
    appendJsonNum(Out, "registers_used", F.Compile.RegistersUsed);
    Out += ',';
    appendJsonNum(Out, "spill_stores", F.Compile.SpillStores);
    Out += ',';
    appendJsonNum(Out, "reloads", F.Compile.Reloads);
    Out += ',';
    appendJsonNum(Out, "spill_slots", F.Compile.SpillSlots);
    Out += ',';
    appendJsonNum(Out, "ranges_split", F.Compile.RangesSplit);
    Out += ',';
    appendJsonNum(Out, "regalloc_iterations", F.Compile.RegallocIterations);
  }
  if (IncludeTimings) {
    Out += ',';
    appendJsonNum(Out, "time_us", F.Compile.TimeMicros);
    if (!F.Compile.Phases.empty()) {
      Out += ',';
      appendJsonKey(Out, "phases");
      Out += '[';
      for (size_t I = 0; I != F.Compile.Phases.size(); ++I) {
        const PhaseSample &P = F.Compile.Phases[I];
        if (I)
          Out += ',';
        Out += '{';
        appendJsonStr(Out, "name", P.Name);
        Out += ',';
        appendJsonNum(Out, "us", P.Nanos / 1000);
        Out += '}';
      }
      Out += ']';
    }
  }
  if (F.Executed) {
    Out += ',';
    appendJsonKey(Out, "exec");
    Out += '{';
    appendJsonKey(Out, "completed");
    Out += F.Exec.Completed ? "true" : "false";
    Out += ',';
    appendJsonKey(Out, "return");
    Out += std::to_string(F.Exec.ReturnValue);
    Out += ',';
    appendJsonNum(Out, "instructions", F.Exec.InstructionsExecuted);
    Out += ',';
    appendJsonNum(Out, "copies", F.Exec.CopiesExecuted);
    if (F.Compile.Allocated) {
      Out += ',';
      appendJsonNum(Out, "spill_ops", F.Exec.SpillOpsExecuted);
    }
    Out += '}';
  }
  Out += '}';
}

} // namespace

void fcc::appendUnitJson(std::string &Out, const UnitReport &U,
                         bool IncludeTimings) {
  Out += '{';
  appendJsonNum(Out, "index", U.Index);
  Out += ',';
  appendJsonStr(Out, "name", U.Name);
  if (!U.Path.empty()) {
    Out += ',';
    appendJsonStr(Out, "path", U.Path);
  }
  Out += ',';
  appendJsonStr(Out, "status", unitStatusName(U.Status));
  if (!U.ok()) {
    Out += ',';
    appendJsonStr(Out, "error", U.Error);
  }
  if (IncludeTimings) {
    Out += ',';
    appendJsonNum(Out, "time_us", U.TotalMicros);
  }
  Out += ',';
  appendJsonKey(Out, "functions");
  Out += '[';
  for (size_t I = 0; I != U.Functions.size(); ++I) {
    if (I)
      Out += ',';
    appendFunction(Out, U.Functions[I], IncludeTimings);
  }
  Out += "]}";
}

std::string BatchReport::toJson(bool IncludeTimings) const {
  std::string Out;
  Out += '{';
  appendJsonStr(Out, "pipeline", pipelineName(Kind));
  if (IncludeTimings) {
    Out += ',';
    appendJsonNum(Out, "jobs", Jobs);
  }
  Out += ',';
  appendJsonKey(Out, "units");
  Out += '[';
  for (size_t I = 0; I != Units.size(); ++I) {
    if (I)
      Out += ',';
    appendUnitJson(Out, Units[I], IncludeTimings);
  }
  Out += ']';

  BatchTotals T = totals();
  Out += ',';
  appendJsonKey(Out, "totals");
  Out += '{';
  appendJsonNum(Out, "units", T.Units);
  Out += ',';
  appendJsonNum(Out, "ok", T.Units - T.Failed);
  Out += ',';
  appendJsonNum(Out, "failed", T.Failed);
  Out += ',';
  appendJsonNum(Out, "functions", T.Functions);
  Out += ',';
  appendJsonNum(Out, "input_copies", T.InputStaticCopies);
  Out += ',';
  appendJsonNum(Out, "copies_left", T.StaticCopiesLeft);
  Out += ',';
  appendJsonNum(Out, "phis", T.PhisInserted);
  Out += ',';
  appendJsonNum(Out, "max_peak_bytes", T.MaxPeakBytes);
  if (T.Allocated) {
    Out += ',';
    appendJsonNum(Out, "spill_stores", T.SpillStores);
    Out += ',';
    appendJsonNum(Out, "reloads", T.Reloads);
    Out += ',';
    appendJsonNum(Out, "ranges_split", T.RangesSplit);
    Out += ',';
    appendJsonNum(Out, "max_registers_used", T.MaxRegistersUsed);
    Out += ',';
    appendJsonNum(Out, "dynamic_spill_ops", T.DynamicSpillOps);
  }
  if (IncludeTimings) {
    Out += ',';
    appendJsonNum(Out, "compile_us", T.CompileMicros);
    Out += ',';
    appendJsonNum(Out, "wall_us", WallMicros);
  }
  Out += '}';

  if (HasStats) {
    Out += ',';
    appendJsonKey(Out, "stats");
    Out += "{\"counters\":{";
    for (size_t I = 0; I != Counters.size(); ++I) {
      if (I)
        Out += ',';
      appendJsonEscaped(Out, Counters[I].Name);
      Out += ':' + std::to_string(Counters[I].Value);
    }
    Out += "},\"phases\":[";
    for (size_t I = 0; I != PhaseTotals.size(); ++I) {
      const PhaseTotal &P = PhaseTotals[I];
      if (I)
        Out += ',';
      Out += '{';
      appendJsonStr(Out, "name", P.Name);
      Out += ',';
      appendJsonNum(Out, "calls", P.Calls);
      if (IncludeTimings) {
        Out += ',';
        appendJsonNum(Out, "us", P.Nanos / 1000);
      }
      Out += '}';
    }
    Out += "]}";
  }
  Out += '}';
  return Out;
}

std::string BatchReport::statsText(bool IncludeTimings) const {
  if (!HasStats)
    return std::string();
  return renderStats(PhaseTotals, Counters, IncludeTimings);
}

std::string BatchReport::summary() const {
  BatchTotals T = totals();
  std::string Out;
  char Buf[256];
  for (const UnitReport &U : Units) {
    if (U.ok())
      continue;
    std::snprintf(Buf, sizeof(Buf), "FAIL %-4u %-24s %s: %s\n", U.Index,
                  U.Name.c_str(), unitStatusName(U.Status), U.Error.c_str());
    Out += Buf;
  }
  std::snprintf(Buf, sizeof(Buf),
                "%u units (%u ok, %u failed), %u functions, %s pipeline, "
                "%u jobs\n",
                T.Units, T.Units - T.Failed, T.Failed, T.Functions,
                pipelineName(Kind), Jobs);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf),
                "copies %u -> %u, %u phis, peak %zu bytes, compile %llu us, "
                "wall %llu us\n",
                T.InputStaticCopies, T.StaticCopiesLeft, T.PhisInserted,
                T.MaxPeakBytes,
                static_cast<unsigned long long>(T.CompileMicros),
                static_cast<unsigned long long>(WallMicros));
  Out += Buf;
  if (T.Allocated) {
    std::snprintf(Buf, sizeof(Buf),
                  "spills %u stores + %u reloads (%u ranges split), "
                  "max %u registers, %llu dynamic spill ops\n",
                  T.SpillStores, T.Reloads, T.RangesSplit, T.MaxRegistersUsed,
                  static_cast<unsigned long long>(T.DynamicSpillOps));
    Out += Buf;
  }
  return Out;
}
