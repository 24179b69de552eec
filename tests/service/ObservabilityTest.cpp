//===- tests/service/ObservabilityTest.cpp --------------------------------===//
//
// The observability contract end to end: per-phase stats aggregate
// deterministically across job counts, trace events account for the
// pipeline time the report claims, and the emitted trace is valid JSON.
//
//===----------------------------------------------------------------------===//

#include "service/CompilationService.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "pipeline/Pipeline.h"
#include "service/BatchReport.h"
#include "service/WorkUnit.h"
#include "support/Stats.h"
#include "support/TraceWriter.h"
#include <algorithm>
#include <cctype>
#include <gtest/gtest.h>
#include <map>

using namespace fcc;

namespace {

const char *LoopSource = R"(
func @loop(%n) {
entry:
  %i = const 0
  %acc = const 0
  br head
head:
  %c = cmplt %i, %n
  cbr %c, body, exit
body:
  %t = add %acc, %i
  %acc = copy %t
  %i1 = add %i, 1
  %i = copy %i1
  br head
exit:
  ret %acc
}
)";

/// Minimal JSON syntax checker: accepts exactly the value grammar (objects,
/// arrays, strings with escapes, numbers, true/false/null) and demands the
/// whole input is one value. Enough to catch unbalanced braces, stray
/// commas and broken escaping in the trace emitter.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &Text) : S(Text) {}

  bool valid() {
    skipWs();
    return value() && (skipWs(), Pos == S.size());
  }

private:
  bool value() {
    if (Pos >= S.size())
      return false;
    switch (S[Pos]) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }

  bool object() {
    ++Pos; // '{'
    skipWs();
    if (eat('}'))
      return true;
    do {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (!eat(':'))
        return false;
      skipWs();
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat('}');
  }

  bool array() {
    ++Pos; // '['
    skipWs();
    if (eat(']'))
      return true;
    do {
      skipWs();
      if (!value())
        return false;
      skipWs();
    } while (eat(','));
    return eat(']');
  }

  bool string() {
    if (!eat('"'))
      return false;
    while (Pos < S.size() && S[Pos] != '"') {
      if (S[Pos] == '\\') {
        ++Pos;
        if (Pos >= S.size())
          return false;
        if (S[Pos] == 'u') {
          for (int I = 0; I != 4; ++I)
            if (++Pos >= S.size() || !std::isxdigit(
                                         static_cast<unsigned char>(S[Pos])))
              return false;
        }
      }
      ++Pos;
    }
    return eat('"');
  }

  bool number() {
    if (Pos < S.size() && S[Pos] == '-')
      ++Pos;
    size_t DigitsFrom = Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    if (Pos == DigitsFrom)
      return false;
    if (Pos < S.size() && S[Pos] == '.') { // Fraction (e.g. ratios).
      size_t FracFrom = ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
      if (Pos == FracFrom)
        return false;
    }
    return true;
  }

  bool literal(const char *Lit) {
    size_t Len = std::string(Lit).size();
    if (S.compare(Pos, Len, Lit) != 0)
      return false;
    Pos += Len;
    return true;
  }

  bool eat(char C) {
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  void skipWs() {
    while (Pos < S.size() &&
           (S[Pos] == ' ' || S[Pos] == '\n' || S[Pos] == '\t' ||
            S[Pos] == '\r'))
      ++Pos;
  }

  const std::string &S;
  size_t Pos = 0;
};

TEST(ObservabilityTest, PipelinePhasesOffByDefaultOnWithInstr) {
  std::string Error;
  auto M = parseModule(LoopSource, Error);
  ASSERT_TRUE(M) << Error;
  Function &F = *M->functions().front();

  PipelineResult Plain = runPipeline(F, PipelineKind::New);
  EXPECT_TRUE(Plain.Phases.empty());

  auto M2 = parseModule(LoopSource, Error);
  ASSERT_TRUE(M2) << Error;
  RecordList Records;
  Instrumentation Instr;
  Instr.Records = &Records;
  PipelineResult Observed =
      runPipeline(*M2->functions().front(), PipelineKind::New, &Instr);
  StatsRegistry Reg;
  publish(Records, "loop", &Reg, nullptr);

  // The New pipeline's phases in execution order: edge splitting runs
  // before the paper's clock starts, then the timed window.
  std::vector<std::string> Names;
  for (const PhaseSample &P : Observed.Phases)
    Names.push_back(P.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"split-critical-edges",
                                             "dominators", "ssa-build",
                                             "liveness", "forest-walk",
                                             "rewrite"}));

  // The in-window samples are non-overlapping slices of the reported time,
  // so they can never sum past it.
  uint64_t Sum = 0;
  for (const PhaseSample &P : Observed.Phases)
    if (std::string(P.Name) != "split-critical-edges")
      Sum += P.Nanos;
  EXPECT_LT(Sum, (Observed.TimeMicros + 1) * 1000);

  // The registry saw the same phases, plus the coalescer's sub-phases and
  // counters.
  std::vector<PhaseTotal> Totals = Reg.phases();
  auto Has = [&](const char *Name) {
    return std::any_of(Totals.begin(), Totals.end(),
                       [&](const PhaseTotal &T) { return T.Name == Name; });
  };
  for (const char *Name : {"dominators", "ssa-build", "liveness",
                           "forest-walk", "rewrite", "fast.build-sets",
                           "fast.forest-walk", "fast.local-scan"})
    EXPECT_TRUE(Has(Name)) << Name;
  EXPECT_FALSE(Reg.counters().empty());
}

TEST(ObservabilityTest, BriggsPipelineRecordsItsPhases) {
  std::string Error;
  auto M = parseModule(LoopSource, Error);
  ASSERT_TRUE(M) << Error;
  RecordList Records;
  Instrumentation Instr;
  Instr.Records = &Records;
  PipelineResult R =
      runPipeline(*M->functions().front(), PipelineKind::Briggs, &Instr);
  StatsRegistry Reg;
  publish(Records, "loop", &Reg, nullptr);

  std::vector<std::string> Names;
  for (const PhaseSample &P : R.Phases)
    Names.push_back(P.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"split-critical-edges",
                                             "dominators", "ssa-build",
                                             "live-range-webs",
                                             "briggs-coalesce"}));
  std::vector<PhaseTotal> Totals = Reg.phases();
  EXPECT_TRUE(std::any_of(Totals.begin(), Totals.end(),
                          [](const PhaseTotal &T) {
                            return T.Name == "briggs.ig-build";
                          }));
}

TEST(ObservabilityTest, StatsAreIdenticalAcrossJobCounts) {
  std::vector<WorkUnit> Units = generatedCorpus(48, /*BaseSeed=*/17);

  ServiceOptions One;
  One.Jobs = 1;
  One.CollectStats = true;
  BatchReport Sequential = CompilationService(One).run(Units);

  ServiceOptions Eight = One;
  Eight.Jobs = 8;
  BatchReport Parallel = CompilationService(Eight).run(Units);

  ASSERT_TRUE(Sequential.HasStats);
  ASSERT_TRUE(Parallel.HasStats);
  EXPECT_FALSE(Sequential.PhaseTotals.empty());
  EXPECT_FALSE(Sequential.Counters.empty());

  // Counters and call counts are sums of deterministic per-unit values, so
  // the timing-free renderings must match byte for byte.
  EXPECT_EQ(Sequential.statsText(/*IncludeTimings=*/false),
            Parallel.statsText(/*IncludeTimings=*/false));
  EXPECT_EQ(Sequential.toJson(/*IncludeTimings=*/false),
            Parallel.toJson(/*IncludeTimings=*/false));

  // The timed rendering carries extra columns/fields.
  EXPECT_NE(Sequential.statsText(true),
            Sequential.statsText(false));
  EXPECT_NE(Sequential.toJson(true).find("\"stats\""), std::string::npos);
  EXPECT_NE(Sequential.toJson(true).find("\"phases\""), std::string::npos);
}

TEST(ObservabilityTest, TraceAccountsForReportedPipelineTime) {
  std::vector<WorkUnit> Units = generatedCorpus(24, /*BaseSeed=*/29);

  TraceWriter Trace;
  ServiceOptions Opts;
  Opts.Jobs = 4;
  Opts.Trace = &Trace;
  BatchReport Report = CompilationService(Opts).run(Units);
  ASSERT_EQ(Report.totals().Failed, 0u);

  // Sum the pipeline-category trace durations per unit. Only that category
  // lies inside the paper's timed window; "setup" and "unit" spans do not.
  std::map<std::string, uint64_t> PipelineMicros;
  bool SawUnitSpan = false, SawSetup = false;
  for (const TraceEvent &E : Trace.events()) {
    if (E.Category == "pipeline")
      PipelineMicros[E.Unit] += E.DurMicros;
    else if (E.Category == "unit")
      SawUnitSpan = true;
    else if (E.Category == "setup")
      SawSetup = true;
  }
  EXPECT_TRUE(SawUnitSpan);
  EXPECT_TRUE(SawSetup);

  for (const UnitReport &U : Report.Units) {
    uint64_t Reported = 0;
    for (const FunctionRecord &F : U.Functions)
      Reported += F.Compile.TimeMicros;
    uint64_t Traced = PipelineMicros[U.Name];
    uint64_t Diff = Traced > Reported ? Traced - Reported : Reported - Traced;
    // Each phase boundary can lose up to ~1us to clock granularity and the
    // probes themselves; allow 5% with a 25us floor for tiny units.
    // Sanitizers multiply the probe cost, so give them a wider budget.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
    uint64_t Tolerance = std::max<uint64_t>(Reported / 4, 100);
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
    uint64_t Tolerance = std::max<uint64_t>(Reported / 4, 100);
#else
    uint64_t Tolerance = std::max<uint64_t>(Reported / 20, 25);
#endif
#else
    uint64_t Tolerance = std::max<uint64_t>(Reported / 20, 25);
#endif
    EXPECT_LE(Diff, Tolerance)
        << U.Name << ": traced " << Traced << "us vs reported " << Reported
        << "us";
  }
}

TEST(ObservabilityTest, ThrownUnitKeepsItsTimeAndUnitSpan) {
  // runPipeline rejects passes under Briggs by throwing, after the unit
  // has been generated and checked.
  TraceWriter Trace;
  ServiceOptions Opts;
  Opts.Pipeline = PipelineKind::Briggs;
  Opts.Passes = {PassKind::Sccp};
  Opts.Trace = &Trace;
  UnitReport U = CompilationService(Opts).compileOne(
      generatedCorpus(1, /*BaseSeed=*/7)[0], 0, nullptr);

  EXPECT_EQ(U.Status, UnitStatus::InternalError);
  EXPECT_STREQ(unitStatusName(U.Status), "internal-error");
  EXPECT_EQ(U.Name, "gen0");
  EXPECT_TRUE(U.Functions.empty());
  EXPECT_GT(U.TotalMicros, 0u);
  std::vector<TraceEvent> Events = Trace.events();
  ASSERT_EQ(std::count_if(Events.begin(), Events.end(),
                          [](const TraceEvent &E) {
                            return E.Category == "unit";
                          }),
            1);
  EXPECT_EQ(Events.back().Name, "gen0");
  EXPECT_EQ(Events.back().Category, "unit");
}

TEST(ObservabilityTest, TraceJsonIsSyntacticallyValid) {
  std::vector<WorkUnit> Units = generatedCorpus(8, /*BaseSeed=*/41);
  Units.push_back(WorkUnit::fromSource("weird \"name\"\\path", LoopSource));

  TraceWriter Trace;
  ServiceOptions Opts;
  Opts.Jobs = 2;
  Opts.Trace = &Trace;
  CompilationService(Opts).run(Units);

  ASSERT_FALSE(Trace.events().empty());
  std::string Json = Trace.toJson();
  EXPECT_TRUE(JsonChecker(Json).valid()) << Json.substr(0, 400);

  // Worker threads each get a dense track id.
  unsigned MaxTid = 0;
  for (const TraceEvent &E : Trace.events())
    MaxTid = std::max(MaxTid, E.Tid);
  EXPECT_LT(MaxTid, 2u + 1); // At most Jobs distinct worker tracks.
}

TEST(ObservabilityTest, BatchJsonWithStatsIsSyntacticallyValid) {
  std::vector<WorkUnit> Units = generatedCorpus(6, /*BaseSeed=*/53);
  ServiceOptions Opts;
  Opts.CollectStats = true;
  BatchReport Report = CompilationService(Opts).run(Units);
  EXPECT_TRUE(JsonChecker(Report.toJson(true)).valid());
  EXPECT_TRUE(JsonChecker(Report.toJson(false)).valid());
}

} // namespace
