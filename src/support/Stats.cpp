//===- support/Stats.cpp --------------------------------------------------===//

#include "support/Stats.h"

#include "support/TraceWriter.h"

#include <algorithm>
#include <cstdio>
#include <string_view>

using namespace fcc;

namespace {

/// The entry for \p Name, created at its default on first sight.
template <typename V>
V &slot(std::map<std::string, V, std::less<>> &Map, const char *Name) {
  auto It = Map.find(std::string_view(Name));
  if (It == Map.end())
    It = Map.emplace(Name, V()).first;
  return It->second;
}

} // namespace

void fcc::publish(const RecordList &List, const std::string &Unit,
                  StatsRegistry *Registry, TraceWriter *Trace) {
  if (Registry) {
    std::lock_guard<std::mutex> Lock(Registry->Mu);
    for (const Record &R : List.Records) {
      if (R.is("count")) {
        slot(Registry->Counters, R.Name) += R.Value;
      } else if (R.is("max")) {
        uint64_t &Peak = slot(Registry->Counters, R.Name);
        Peak = std::max(Peak, R.Value);
      } else if (!R.is("unit")) {
        auto &Total = slot(Registry->Phases, R.Name);
        ++Total.Calls;
        Total.Nanos += R.Value;
      }
    }
  }
  if (!Trace)
    return;
  const uint64_t Epoch = Trace->epochNanos();
  std::vector<TraceEvent> Events;
  for (const Record &R : List.Records)
    if (!R.isCounter())
      Events.push_back(
          {R.Name, R.Category,
           R.StartNs > Epoch ? (R.StartNs - Epoch) / 1000 : 0, R.Value / 1000,
           /*Tid=*/0, Unit,
           R.Function ? List.Functions[R.Function - 1] : std::string()});
  Trace->appendEvents(std::move(Events));
}

std::vector<CounterSnapshot> StatsRegistry::counters() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<CounterSnapshot> Out;
  Out.reserve(Counters.size());
  for (const auto &[Name, Value] : Counters)
    Out.push_back({Name, Value});
  return Out; // std::map iteration is already name-sorted.
}

std::vector<PhaseTotal> StatsRegistry::phases() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<PhaseTotal> Out;
  Out.reserve(Phases.size());
  for (const auto &[Name, Agg] : Phases)
    Out.push_back({Name, Agg.Calls, Agg.Nanos});
  return Out;
}

std::string fcc::renderStats(const std::vector<PhaseTotal> &Phases,
                             const std::vector<CounterSnapshot> &Counters,
                             bool IncludeTimings) {
  std::string Out;
  char Buf[160];
  if (!Phases.empty()) {
    if (IncludeTimings)
      Out += "phase                            calls    total_us\n";
    else
      Out += "phase                            calls\n";
    for (const PhaseTotal &P : Phases) {
      if (IncludeTimings)
        std::snprintf(Buf, sizeof(Buf), "%-30s %7llu %11llu\n",
                      P.Name.c_str(),
                      static_cast<unsigned long long>(P.Calls),
                      static_cast<unsigned long long>(P.Nanos / 1000));
      else
        std::snprintf(Buf, sizeof(Buf), "%-30s %7llu\n", P.Name.c_str(),
                      static_cast<unsigned long long>(P.Calls));
      Out += Buf;
    }
  }
  if (!Counters.empty()) {
    Out += "counter                                value\n";
    for (const CounterSnapshot &C : Counters) {
      std::snprintf(Buf, sizeof(Buf), "%-30s %13llu\n", C.Name.c_str(),
                    static_cast<unsigned long long>(C.Value));
      Out += Buf;
    }
  }
  return Out;
}
