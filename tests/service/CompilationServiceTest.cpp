//===- tests/service/CompilationServiceTest.cpp ---------------------------===//
//
// The service's contract: deterministic aggregation independent of the job
// count, and error isolation — one bad unit never takes down a batch.
//
//===----------------------------------------------------------------------===//

#include "service/CompilationService.h"

#include "server/ResultCache.h"
#include "service/BatchReport.h"
#include "service/WorkUnit.h"
#include <filesystem>
#include <fstream>
#include <gtest/gtest.h>

using namespace fcc;

namespace {

/// A well-formed routine with copies and a loop (food for every pipeline).
const char *GoodSource = R"(
func @good(%n) {
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

/// Structurally valid and strict, but its body loops forever: only the
/// interpreter's step limit bounds it.
const char *LoopForever = R"(
func @spin(%n) {
entry:
  %one = const 1
  br head
head:
  cbr %one, head, exit
exit:
  ret %n
}
)";

TEST(CompilationServiceTest, CompilesAMixedCorpus) {
  std::vector<WorkUnit> Units = generatedCorpus(6, /*BaseSeed=*/11);
  Units.push_back(WorkUnit::fromSource("good", GoodSource));

  ServiceOptions Opts;
  Opts.Jobs = 4;
  Opts.Execute = true;
  Opts.ExecArgs = {5};
  BatchReport Report = CompilationService(Opts).run(Units);

  ASSERT_EQ(Report.Units.size(), 7u);
  for (const UnitReport &U : Report.Units) {
    EXPECT_TRUE(U.ok()) << U.Name << ": " << U.Error;
    ASSERT_EQ(U.Functions.size(), 1u);
    EXPECT_TRUE(U.Functions[0].Executed);
    EXPECT_TRUE(U.Functions[0].Exec.Completed);
  }
  // @good(5) sums 0..4.
  EXPECT_EQ(Report.Units[6].Functions[0].Exec.ReturnValue, 10);
  EXPECT_EQ(Report.totals().Failed, 0u);
}

TEST(CompilationServiceTest, ReportIsIdenticalAcrossJobCounts) {
  // The acceptance bar: a 64-unit corpus aggregated on one thread and on
  // eight must serialize to byte-identical deterministic JSON.
  std::vector<WorkUnit> Units = generatedCorpus(64, /*BaseSeed=*/3);

  ServiceOptions One;
  One.Jobs = 1;
  One.CheckPartition = true;
  BatchReport Sequential = CompilationService(One).run(Units);

  ServiceOptions Eight = One;
  Eight.Jobs = 8;
  BatchReport Parallel = CompilationService(Eight).run(Units);
  BatchReport Parallel2 = CompilationService(Eight).run(Units);

  EXPECT_EQ(Sequential.totals().Failed, 0u);
  std::string A = Sequential.toJson(/*IncludeTimings=*/false);
  std::string B = Parallel.toJson(/*IncludeTimings=*/false);
  std::string C = Parallel2.toJson(/*IncludeTimings=*/false);
  EXPECT_EQ(A, B);
  EXPECT_EQ(B, C);
  // The timed form must differ only in the timing fields, which the
  // deterministic form omits; sanity-check it at least parses as nonempty.
  EXPECT_NE(Sequential.toJson(true), A);
}

TEST(CompilationServiceTest, MalformedUnitIsIsolated) {
  std::vector<WorkUnit> Units = generatedCorpus(5, /*BaseSeed=*/21);
  Units.insert(Units.begin() + 2,
               WorkUnit::fromSource("broken", "func @broken { this is not ir"));

  ServiceOptions Opts;
  Opts.Jobs = 4;
  BatchReport Report = CompilationService(Opts).run(Units);

  ASSERT_EQ(Report.Units.size(), 6u);
  EXPECT_EQ(Report.totals().Failed, 1u);
  const UnitReport &Bad = Report.Units[2];
  EXPECT_EQ(Bad.Status, UnitStatus::ParseError);
  EXPECT_EQ(Bad.Name, "broken");
  EXPECT_FALSE(Bad.Error.empty());
  for (unsigned I : {0u, 1u, 3u, 4u, 5u})
    EXPECT_TRUE(Report.Units[I].ok()) << I;
}

TEST(CompilationServiceTest, OutOfRangeLiteralIsAParseError) {
  std::vector<WorkUnit> Units = {
      WorkUnit::fromSource("huge", "func @huge() {\nentry:\n"
                                   "  %x = const 99999999999999999999\n"
                                   "  ret %x\n}\n"),
      WorkUnit::fromSource("good", GoodSource)};

  BatchReport Report = CompilationService(ServiceOptions()).run(Units);

  ASSERT_EQ(Report.Units.size(), 2u);
  EXPECT_EQ(Report.Units[0].Status, UnitStatus::ParseError);
  EXPECT_EQ(Report.Units[0].Error, "line 3: integer literal out of range");
  EXPECT_TRUE(Report.Units[1].ok()) << Report.Units[1].Error;
}

TEST(CompilationServiceTest, NonStrictUnitIsIsolatedOrRepaired) {
  const char *NonStrict = R"(
func @maybe(%p) {
entry:
  %c = cmplt %p, 10
  cbr %c, then, join
then:
  %x = const 1
  br join
join:
  ret %x
}
)";
  std::vector<WorkUnit> Units = {WorkUnit::fromSource("maybe", NonStrict),
                                 WorkUnit::fromSource("good", GoodSource)};

  ServiceOptions Opts;
  BatchReport Report = CompilationService(Opts).run(Units);
  EXPECT_EQ(Report.Units[0].Status, UnitStatus::NotStrict);
  EXPECT_TRUE(Report.Units[1].ok());

  Opts.EnforceStrictness = true;
  Report = CompilationService(Opts).run(Units);
  EXPECT_TRUE(Report.Units[0].ok()) << Report.Units[0].Error;
}

TEST(CompilationServiceTest, UnitWithPhisIsAVerifyError) {
  // Compiles build SSA themselves, so a strict input that already has phis
  // is rejected up front, on every validation path, not compiled.
  const char *WithPhi = R"(
func @joined(%c) {
entry:
  cbr %c, a, b
a:
  %x = const 1
  br join
b:
  %z = const 2
  br join
join:
  %y = phi [%x, a], [%z, b]
  ret %y
}
)";
  std::vector<WorkUnit> Units = {WorkUnit::fromSource("joined", WithPhi),
                                 WorkUnit::fromSource("good", GoodSource)};
  ResultCache Cache;
  for (bool Enforce : {false, true}) {
    for (ResultCache *C : {static_cast<ResultCache *>(nullptr), &Cache}) {
      ServiceOptions Opts;
      Opts.EnforceStrictness = Enforce;
      Opts.Cache = C;
      BatchReport Report = CompilationService(Opts).run(Units);
      EXPECT_EQ(Report.Units[0].Status, UnitStatus::VerifyError);
      EXPECT_EQ(Report.Units[0].Error,
                "@joined: input has phis; compiles start from phi-free code");
      EXPECT_TRUE(Report.Units[1].ok()) << Report.Units[1].Error;
    }
  }
}

TEST(CompilationServiceTest, LoopingUnitIsBoundedByStepLimit) {
  std::vector<WorkUnit> Units = {WorkUnit::fromSource("spin", LoopForever),
                                 WorkUnit::fromSource("good", GoodSource)};

  ServiceOptions Opts;
  Opts.Jobs = 2;
  Opts.Execute = true;
  Opts.ExecArgs = {7};
  Opts.ExecStepLimit = 10'000;
  BatchReport Report = CompilationService(Opts).run(Units);

  ASSERT_EQ(Report.Units.size(), 2u);
  // The spinner compiles fine; only its execution is cut off, and that is
  // recorded rather than treated as a batch failure.
  EXPECT_TRUE(Report.Units[0].ok()) << Report.Units[0].Error;
  ASSERT_EQ(Report.Units[0].Functions.size(), 1u);
  EXPECT_FALSE(Report.Units[0].Functions[0].Exec.Completed);
  EXPECT_TRUE(Report.Units[1].Functions[0].Exec.Completed);
}

TEST(CompilationServiceTest, InstructionBudgetRejectsHugeUnits) {
  std::vector<WorkUnit> Units = generatedCorpus(3, /*BaseSeed=*/5);

  ServiceOptions Opts;
  Opts.MaxUnitInstructions = 1; // Everything real exceeds this.
  BatchReport Report = CompilationService(Opts).run(Units);
  for (const UnitReport &U : Report.Units) {
    EXPECT_EQ(U.Status, UnitStatus::BudgetExceeded);
    EXPECT_NE(U.Error.find("budget"), std::string::npos);
  }

  Opts.MaxUnitInstructions = 0;
  Report = CompilationService(Opts).run(Units);
  EXPECT_EQ(Report.totals().Failed, 0u);
}

TEST(CompilationServiceTest, CancellationMarksUnitsCancelled) {
  std::vector<WorkUnit> Units = generatedCorpus(16, /*BaseSeed=*/9);
  ServiceOptions Opts;
  Opts.Jobs = 4;
  CompilationService Service(Opts);
  Service.cancel();
  BatchReport Report = Service.run(Units);
  for (const UnitReport &U : Report.Units)
    EXPECT_EQ(U.Status, UnitStatus::Cancelled);

  Service.resetCancellation();
  Report = Service.run(Units);
  EXPECT_EQ(Report.totals().Failed, 0u);
}

TEST(CompilationServiceTest, UnreadableFileIsIsolated) {
  std::vector<WorkUnit> Units = {
      WorkUnit::fromFile("/nonexistent/no-such-file.ir"),
      WorkUnit::fromSource("good", GoodSource)};
  BatchReport Report = CompilationService(ServiceOptions()).run(Units);
  EXPECT_EQ(Report.Units[0].Status, UnitStatus::ReadError);
  EXPECT_TRUE(Report.Units[1].ok());
}

TEST(CompilationServiceTest, CollectUnitsScansDirectoriesDeterministically) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "fcc_service_test_corpus";
  fs::remove_all(Dir);
  fs::create_directories(Dir / "nested");
  std::ofstream(Dir / "b.ir") << GoodSource;
  std::ofstream(Dir / "a.ir") << GoodSource;
  std::ofstream(Dir / "nested" / "c.ir") << GoodSource;
  std::ofstream(Dir / "ignored.txt") << "not ir";

  std::vector<WorkUnit> Units;
  std::string Error;
  ASSERT_TRUE(collectUnits(Dir.string(), Units, Error)) << Error;
  ASSERT_EQ(Units.size(), 3u);
  EXPECT_EQ(Units[0].Name, "a");
  EXPECT_EQ(Units[1].Name, "b");
  EXPECT_EQ(Units[2].Name, "c");

  BatchReport Report = CompilationService(ServiceOptions()).run(Units);
  EXPECT_EQ(Report.totals().Failed, 0u);

  Units.clear();
  EXPECT_FALSE(collectUnits((Dir / "missing").string(), Units, Error));
  EXPECT_FALSE(Error.empty());
  fs::remove_all(Dir);
}

TEST(CompilationServiceTest, JsonEscapesAwkwardNames) {
  std::vector<WorkUnit> Units = {
      WorkUnit::fromSource("quote\"back\\slash\nnewline", GoodSource)};
  BatchReport Report = CompilationService(ServiceOptions()).run(Units);
  std::string Json = Report.toJson(false);
  EXPECT_NE(Json.find("quote\\\"back\\\\slash\\nnewline"), std::string::npos);
}

} // namespace
