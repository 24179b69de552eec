//===- support/TraceWriter.cpp --------------------------------------------===//

#include "support/TraceWriter.h"

#include "support/JsonEscape.h"

#include <cstdio>
#include <fstream>

using namespace fcc;

void TraceWriter::appendEvents(std::vector<TraceEvent> &&Batch) {
  if (Batch.empty())
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  unsigned &Tid = ThreadIds
                      .emplace(std::this_thread::get_id(),
                               static_cast<unsigned>(ThreadIds.size()))
                      .first->second;
  for (TraceEvent &E : Batch) {
    E.Tid = Tid;
    Events.push_back(std::move(E));
  }
  Batch.clear();
}

std::vector<TraceEvent> TraceWriter::events() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Events;
}

std::string TraceWriter::toJson() const {
  std::vector<TraceEvent> Snapshot = events();
  std::string Out;
  Out += "{\"traceEvents\":[";
  for (size_t I = 0; I != Snapshot.size(); ++I) {
    const TraceEvent &E = Snapshot[I];
    if (I)
      Out += ',';
    Out += "{\"name\":";
    appendJsonEscaped(Out, E.Name);
    Out += ",\"cat\":";
    appendJsonEscaped(Out, E.Category);
    Out += ",\"ph\":\"X\",\"ts\":" + std::to_string(E.TsMicros) +
           ",\"dur\":" + std::to_string(E.DurMicros) +
           ",\"pid\":0,\"tid\":" + std::to_string(E.Tid);
    if (!E.Unit.empty() || !E.Function.empty()) {
      Out += ",\"args\":{";
      if (!E.Unit.empty()) {
        Out += "\"unit\":";
        appendJsonEscaped(Out, E.Unit);
      }
      if (!E.Function.empty()) {
        if (!E.Unit.empty())
          Out += ',';
        Out += "\"function\":";
        appendJsonEscaped(Out, E.Function);
      }
      Out += '}';
    }
    Out += '}';
  }
  Out += "],\"displayTimeUnit\":\"ms\"}";
  return Out;
}

bool TraceWriter::writeFile(const std::string &Path,
                            std::string &Error) const {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out) {
    Error = "cannot write " + Path;
    return false;
  }
  Out << toJson() << '\n';
  if (!Out) {
    Error = "write failed for " + Path;
    return false;
  }
  return true;
}
