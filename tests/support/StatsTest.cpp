//===- tests/support/StatsTest.cpp ----------------------------------------===//
//
// The observability substrate: probes and counters append records to a
// staging list and stay inert without one, publish() turns a list into
// name-sorted registry totals (thread-safe, summed in nanoseconds) and
// trace events, and TraceWriter emits well-formed Chrome trace JSON with
// per-thread track ids.
//
//===----------------------------------------------------------------------===//

#include "support/Stats.h"

#include "support/ThreadPool.h"
#include "support/TraceWriter.h"
#include <gtest/gtest.h>
#include <thread>

using namespace fcc;

namespace {

/// Publishes \p List into \p Reg alone.
void publishTo(StatsRegistry &Reg, const RecordList &List) {
  publish(List, "u", &Reg, nullptr);
}

TEST(StatsRegistryTest, CountersAccumulateAndSortByName) {
  RecordList List;
  List.bump("zeta");
  List.bump("alpha", 3);
  List.bump("zeta", 2);
  List.bump("mid", 0); // Zero-delta still creates the counter.
  StatsRegistry Reg;
  publishTo(Reg, List);

  std::vector<CounterSnapshot> C = Reg.counters();
  ASSERT_EQ(C.size(), 3u);
  EXPECT_EQ(C[0].Name, "alpha");
  EXPECT_EQ(C[0].Value, 3u);
  EXPECT_EQ(C[1].Name, "mid");
  EXPECT_EQ(C[1].Value, 0u);
  EXPECT_EQ(C[2].Name, "zeta");
  EXPECT_EQ(C[2].Value, 3u);
  EXPECT_TRUE(Reg.phases().empty());
}

TEST(StatsRegistryTest, NoteMaxKeepsHighWaterMark) {
  RecordList List;
  List.append("peak", "max", 0, 10);
  List.append("peak", "max", 0, 4); // Lower value must not regress the mark.
  List.append("peak", "max", 0, 12);
  StatsRegistry Reg;
  publishTo(Reg, List);
  RecordList Later;
  Later.append("peak", "max", 0, 11); // Nor may a later list.
  publishTo(Reg, Later);
  EXPECT_EQ(Reg.counters()[0].Value, 12u);
}

TEST(StatsRegistryTest, PhasesAccumulateCallsAndNanos) {
  RecordList List;
  List.append("walk", "pipeline", 0, 10'000);
  List.append("build", "coalesce", 0, 5'000);
  List.append("walk", "pipeline", 0, 7'000);
  List.append("u", "unit", 0, 99'000); // The unit span is trace-only.
  StatsRegistry Reg;
  publishTo(Reg, List);

  std::vector<PhaseTotal> P = Reg.phases();
  ASSERT_EQ(P.size(), 2u);
  EXPECT_EQ(P[0].Name, "build");
  EXPECT_EQ(P[0].Calls, 1u);
  EXPECT_EQ(P[0].Nanos, 5'000u);
  EXPECT_EQ(P[1].Name, "walk");
  EXPECT_EQ(P[1].Calls, 2u);
  EXPECT_EQ(P[1].Nanos, 17'000u);
  EXPECT_TRUE(Reg.counters().empty());
}

TEST(StatsRegistryTest, TotalsAreNanosecondSums) {
  // A thousand sub-microsecond samples: truncating each one to whole
  // microseconds would total 0.
  RecordList List;
  for (unsigned I = 0; I != 1000; ++I)
    List.append("fast.local-scan", "coalesce", I * 400, 400);
  StatsRegistry Reg;
  publishTo(Reg, List);

  ASSERT_EQ(Reg.phases().size(), 1u);
  EXPECT_EQ(Reg.phases()[0].Calls, 1000u);
  EXPECT_EQ(Reg.phases()[0].Nanos, 400'000u);
  EXPECT_NE(renderStats(Reg.phases(), {}, /*IncludeTimings=*/true)
                .find(" 1000         400\n"),
            std::string::npos);
}

TEST(StatsRegistryTest, ConcurrentBumpsSumExactly) {
  StatsRegistry Reg;
  constexpr unsigned Threads = 8, PerThread = 2000;
  ThreadPool Pool(Threads);
  for (unsigned T = 0; T != Threads; ++T)
    Pool.submit([&Reg] {
      for (unsigned I = 0; I != PerThread; ++I) {
        RecordList List;
        List.bump("hits");
        List.append("phase", "pipeline", 0, 1'000);
        publishTo(Reg, List);
      }
    });
  Pool.wait();
  EXPECT_EQ(Reg.counters()[0].Value, Threads * PerThread);
  EXPECT_EQ(Reg.phases()[0].Calls, Threads * PerThread);
  EXPECT_EQ(Reg.phases()[0].Nanos, Threads * PerThread * 1'000ull);
}

TEST(StatsRegistryTest, RenderOmitsMicrosWithoutTimings) {
  RecordList List;
  List.append("walk", "pipeline", 0, 123'456);
  List.bump("evictions", 4);
  StatsRegistry Reg;
  publishTo(Reg, List);

  std::string Timed =
      renderStats(Reg.phases(), Reg.counters(), /*IncludeTimings=*/true);
  EXPECT_NE(Timed.find("total_us"), std::string::npos);
  EXPECT_NE(Timed.find(" 123\n"), std::string::npos);

  std::string Plain =
      renderStats(Reg.phases(), Reg.counters(), /*IncludeTimings=*/false);
  EXPECT_EQ(Plain.find("total_us"), std::string::npos);
  EXPECT_EQ(Plain.find("123"), std::string::npos);
  EXPECT_NE(Plain.find("walk"), std::string::npos);
  EXPECT_NE(Plain.find("evictions"), std::string::npos);
}

TEST(PhaseScopeTest, ReportsToAllSinks) {
  RecordList List;
  Instrumentation Instr;
  Instr.Records = &List;
  List.beginFunction("f");
  {
    PhaseScope P(&Instr, "demo", "pipeline");
  }
  // The probe's only output is one record in the list.
  ASSERT_EQ(List.Records.size(), 1u);
  EXPECT_STREQ(List.Records[0].Name, "demo");
  EXPECT_EQ(List.Records[0].Function, 1u);

  StatsRegistry Reg;
  TraceWriter Trace;
  publish(List, "u", &Reg, &Trace);
  ASSERT_EQ(Reg.phases().size(), 1u);
  EXPECT_EQ(Reg.phases()[0].Name, "demo");
  ASSERT_EQ(Trace.events().size(), 1u);
  TraceEvent E = Trace.events()[0];
  EXPECT_EQ(E.Name, "demo");
  EXPECT_EQ(E.Category, "pipeline");
  EXPECT_EQ(E.Unit, "u");
  EXPECT_EQ(E.Function, "f");
}

TEST(PhaseScopeTest, InertWithoutSinks) {
  {
    PhaseScope P(nullptr, "demo", "pipeline");
  }
  Instrumentation Empty;
  {
    PhaseScope P(&Empty, "demo", "pipeline");
  }
  // Nothing to assert beyond "does not crash": no list, no effect.
  SUCCEED();
}

TEST(PublishTest, TraceEventsCountMicrosFromTheWritersEpoch) {
  TraceWriter Trace;
  RecordList List;
  List.append("early", "setup", Trace.epochNanos() + 5'900, 7'999);
  List.bump("not-an-event");
  List.Records.push_back({"u", "unit", Trace.epochNanos(), 20'000, 0});
  publish(List, "u", nullptr, &Trace);

  std::vector<TraceEvent> Events = Trace.events();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].TsMicros, 5u);
  EXPECT_EQ(Events[0].DurMicros, 7u);
  EXPECT_EQ(Events[1].Category, "unit");
  EXPECT_EQ(Events[1].Function, ""); // Unit-level records name no function.
}

TEST(TraceWriterTest, AssignsDenseThreadIds) {
  TraceWriter Trace;
  Trace.appendEvents({{"main-thread", "t", 0, 1, 0, "", ""}});
  std::thread([&Trace] {
    Trace.appendEvents({{"other-thread", "t", 1, 1, 0, "", ""}});
  }).join();
  std::vector<TraceEvent> Events = Trace.events();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Tid, 0u);
  EXPECT_EQ(Events[1].Tid, 1u);
}

TEST(TraceWriterTest, JsonHasChromeTraceShape) {
  TraceWriter Trace;
  Trace.appendEvents(
      {{"phase \"a\"", "pipeline", 5, 7, /*Tid=*/0, "unit\\1", "f"}});
  std::string Json = Trace.toJson();
  EXPECT_EQ(Json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"ts\":5"), std::string::npos);
  EXPECT_NE(Json.find("\"dur\":7"), std::string::npos);
  EXPECT_NE(Json.find("\"phase \\\"a\\\"\""), std::string::npos);
  EXPECT_NE(Json.find("\"unit\\\\1\""), std::string::npos);
  EXPECT_NE(Json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

} // namespace
