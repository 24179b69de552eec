//===- tests/pipeline/PipelineTest.cpp ------------------------------------===//

#include "pipeline/Pipeline.h"

#include "../common/ShapeSources.h"
#include "../common/TestPrograms.h"
#include "../common/TestUtils.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "support/Stats.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>
#include <utility>

using namespace fcc;

namespace {

constexpr PipelineKind AllKinds[] = {
    PipelineKind::Standard, PipelineKind::New, PipelineKind::Briggs,
    PipelineKind::BriggsImproved};

/// The pre-DSU pair, CHK dominators and dense liveness: the reference the
/// default strategy must match byte for byte.
constexpr AnalysisStrategy legacyAnalyses() {
  return {DomAlgorithm::CHK, LivenessAlgorithm::Dense};
}

TEST(PipelineTest, NamesAreStable) {
  EXPECT_STREQ(pipelineName(PipelineKind::Standard), "Standard");
  EXPECT_STREQ(pipelineName(PipelineKind::New), "New");
  EXPECT_STREQ(pipelineName(PipelineKind::Briggs), "Briggs");
  EXPECT_STREQ(pipelineName(PipelineKind::BriggsImproved), "Briggs*");
}

TEST(PipelineTest, AllPipelinesRemovePhisAndVerify) {
  for (PipelineKind Kind : AllKinds) {
    auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
    Function &F = *M->functions()[0];
    PipelineResult R = runPipeline(F, Kind);
    EXPECT_EQ(F.phiCount(), 0u) << pipelineName(Kind);
    std::string Error;
    EXPECT_TRUE(verifyFunction(F, Error)) << pipelineName(Kind) << ": "
                                          << Error;
    EXPECT_GT(R.PeakBytes, 0u);
    EXPECT_GT(R.PhisInserted, 0u);
  }
}

TEST(PipelineTest, NewNeverLeavesMoreCopiesThanStandard) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    RoutineReport Std = runOnRoutine(Spec, PipelineKind::Standard, false);
    RoutineReport New = runOnRoutine(Spec, PipelineKind::New, false);
    EXPECT_LE(New.Compile.StaticCopies, Std.Compile.StaticCopies)
        << Spec.Name;
  }
}

TEST(PipelineTest, BriggsVariantsAgreeOnEveryKernel) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    RoutineReport A = runOnRoutine(Spec, PipelineKind::Briggs, true);
    RoutineReport B = runOnRoutine(Spec, PipelineKind::BriggsImproved, true);
    EXPECT_EQ(A.Compile.StaticCopies, B.Compile.StaticCopies) << Spec.Name;
    EXPECT_EQ(A.Exec.ReturnValue, B.Exec.ReturnValue) << Spec.Name;
    EXPECT_EQ(A.Exec.CopiesExecuted, B.Exec.CopiesExecuted) << Spec.Name;
    // The improved variant's graphs are never larger.
    for (size_t I = 0;
         I < std::min(A.Compile.GraphBytesPerPass.size(),
                      B.Compile.GraphBytesPerPass.size());
         ++I)
      EXPECT_LE(B.Compile.GraphBytesPerPass[I],
                A.Compile.GraphBytesPerPass[I])
          << Spec.Name << " pass " << I;
  }
}

class KernelPipelineSemanticsTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(KernelPipelineSemanticsTest, TransformedKernelMatchesInput) {
  auto [KernelIdx, KindInt] = GetParam();
  const RoutineSpec &Spec = kernelSuite()[KernelIdx];
  PipelineKind Kind = static_cast<PipelineKind>(KindInt);

  auto MRef = Spec.materialize();
  RoutineReport Got = runOnRoutine(Spec, Kind, /*Execute=*/true);
  ExecutionResult Ref = Interpreter().run(*MRef->functions()[0], Spec.Args);
  ASSERT_TRUE(Ref.Completed) << Spec.Name;
  EXPECT_TRUE(Got.Exec.Completed) << Spec.Name;
  EXPECT_EQ(Ref.ReturnValue, Got.Exec.ReturnValue)
      << Spec.Name << " under " << pipelineName(Kind);
  EXPECT_EQ(Ref.FinalMemory, Got.Exec.FinalMemory)
      << Spec.Name << " under " << pipelineName(Kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllPipelines, KernelPipelineSemanticsTest,
    ::testing::Combine(::testing::Range<size_t>(0, 19),
                       ::testing::Values(0, 1, 2, 3)));

class GeneratedPipelineSemanticsTest
    : public ::testing::TestWithParam<std::tuple<unsigned, int>> {};

TEST_P(GeneratedPipelineSemanticsTest, TransformedProgramMatchesInput) {
  auto [Seed, KindInt] = GetParam();
  RoutineSpec Spec;
  Spec.Name = "prop";
  Spec.GenOpts.Seed = Seed;
  Spec.GenOpts.SizeBudget = 8 + Seed % 30;
  Spec.GenOpts.NumParams = 1 + Seed % 3;
  Spec.GenOpts.CopyPercent = 10 + (Seed * 7) % 45;
  Spec.Args = {static_cast<int64_t>(Seed % 5),
               static_cast<int64_t>(Seed % 3), 2};
  Spec.Args.resize(Spec.GenOpts.NumParams);

  auto MRef = Spec.materialize();
  PipelineKind Kind = static_cast<PipelineKind>(KindInt);
  RoutineReport Got = runOnRoutine(Spec, Kind, /*Execute=*/true);
  ExecutionResult Ref = Interpreter().run(*MRef->functions()[0], Spec.Args);
  ASSERT_TRUE(Ref.Completed);
  EXPECT_TRUE(Got.Exec.Completed);
  EXPECT_EQ(Ref.ReturnValue, Got.Exec.ReturnValue)
      << "seed " << Seed << " under " << pipelineName(Kind);
  EXPECT_EQ(Ref.FinalMemory, Got.Exec.FinalMemory)
      << "seed " << Seed << " under " << pipelineName(Kind);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesPipelines, GeneratedPipelineSemanticsTest,
    ::testing::Combine(::testing::Range(1u, 41u),
                       ::testing::Values(0, 1, 2, 3)));

class OptimizedPipelineSemanticsTest
    : public ::testing::TestWithParam<unsigned> {};

// The opt stage inside the round trip: sccp,adce over the fresh SSA form,
// then each destruction that accepts passes, the audited New run included.
// The output is phi-free, verifies and behaves like the input, and New
// still leaves no more copies than Standard.
TEST_P(OptimizedPipelineSemanticsTest, SccpAdcePreservesSemanticsUnderEveryPipeline) {
  GeneratorOptions GenOpts;
  GenOpts.Seed = GetParam();
  GenOpts.SizeBudget = 10 + GetParam() % 18;
  GenOpts.NumParams = 1 + GetParam() % 3;
  GenOpts.CopyPercent = 25;
  GenOpts.MemPercent = 20;

  const std::pair<PipelineKind, bool> Configs[] = {
      {PipelineKind::Standard, false},
      {PipelineKind::New, false},
      {PipelineKind::New, true}};
  unsigned Copies[3] = {};
  for (unsigned C = 0; C != 3; ++C) {
    auto [Kind, Check] = Configs[C];
    std::string Where =
        std::string(pipelineName(Kind)) + (Check ? " with --check" : "");
    Module MRef, MGot;
    Function *Ref = generateProgram(MRef, "g", GenOpts);
    Function *Got = generateProgram(MGot, "g", GenOpts);
    PipelineOptions Opts;
    Opts.Kind = Kind;
    Opts.Passes = {PassKind::Sccp, PassKind::Adce};
    Opts.CheckPartition = Check;
    PipelineResult R;
    ASSERT_NO_THROW(R = runPipeline(*Got, Opts)) << Where;
    Copies[C] = R.StaticCopies;
    EXPECT_EQ(Got->phiCount(), 0u) << Where;
    std::string Error;
    ASSERT_TRUE(verifyFunction(*Got, Error)) << Where << ": " << Error;
    for (const auto &Args : testutils::interestingArgs(
             static_cast<unsigned>(Ref->params().size())))
      testutils::expectSameBehavior(*Ref, *Got, Args);
  }
  EXPECT_LE(Copies[1], Copies[0]);
  EXPECT_EQ(Copies[2], Copies[1]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizedPipelineSemanticsTest,
                         ::testing::Range(1u, 16u));

TEST(PipelineTest, ReportCarriesInputMetrics) {
  RoutineReport R =
      runOnRoutine(kernelSuite()[0], PipelineKind::New, /*Execute=*/false);
  EXPECT_EQ(R.Name, "tomcatv");
  EXPECT_GT(R.InputInstructions, 0u);
}

TEST(PipelineTest, DynamicCopiesNewAtMostStandard) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    RoutineReport Std = runOnRoutine(Spec, PipelineKind::Standard, true);
    RoutineReport New = runOnRoutine(Spec, PipelineKind::New, true);
    EXPECT_LE(New.Exec.CopiesExecuted, Std.Exec.CopiesExecuted) << Spec.Name;
  }
}

TEST(PipelineTest, OutputIsByteIdenticalAcrossAnalysisStrategies) {
  // The load-bearing guarantee behind making dsu+sparse the default: under
  // every pipeline kind, every analysis strategy must produce the same
  // rewritten code and the same report fields, byte for byte (timing
  // aside). The oracle re-checks this continuously on fuzz campaigns; this
  // is the deterministic fixture version. PeakBytes agrees too because
  // these functions stay below Liveness::DenseLayoutMaxBytes, where the
  // sparse solver keeps the dense solver's block-major sets.
  const AnalysisStrategy Strategies[] = {
      {DomAlgorithm::DSU, LivenessAlgorithm::Sparse},
      {DomAlgorithm::DSU, LivenessAlgorithm::Dense},
      {DomAlgorithm::CHK, LivenessAlgorithm::Sparse},
      legacyAnalyses()};
  const char *Programs[] = {testprogs::SumLoop, testprogs::VirtualSwap,
                            testprogs::SwapLoop, testprogs::LostCopy,
                            testprogs::NestedLoops};
  for (PipelineKind Kind : AllKinds) {
    for (const char *Text : Programs) {
      auto RefM = parseSingleFunctionOrDie(Text);
      Function &RefF = *RefM->functions()[0];
      PipelineOptions RefOpts;
      RefOpts.Kind = Kind;
      RefOpts.Analyses = legacyAnalyses();
      PipelineResult RefR = runPipeline(RefF, RefOpts);
      std::string RefText = printFunction(RefF);
      for (AnalysisStrategy S : Strategies) {
        auto M = parseSingleFunctionOrDie(Text);
        Function &F = *M->functions()[0];
        PipelineOptions Opts;
        Opts.Kind = Kind;
        Opts.Analyses = S;
        PipelineResult R = runPipeline(F, Opts);
        std::string Where = std::string(pipelineName(Kind)) + " under dom " +
                            std::to_string(int(S.Dominators)) + ", liveness " +
                            std::to_string(int(S.Liveness));
        EXPECT_EQ(printFunction(F), RefText) << Where;
        EXPECT_EQ(R.PeakBytes, RefR.PeakBytes) << Where;
        EXPECT_EQ(R.StaticCopies, RefR.StaticCopies);
        EXPECT_EQ(R.PhisInserted, RefR.PhisInserted);
        EXPECT_EQ(R.CriticalEdgesSplit, RefR.CriticalEdgesSplit);
      }
    }
  }
}

TEST(PipelineTest, AboveTheCutOverOnlyNewPeakBytesDependsOnTheStrategy) {
  // Above the cut-over the sparse solver stores spans, so New's PeakBytes
  // is its own: below the dense solver's by the difference of the two
  // liveness footprints, and no different for the other pipelines.
  const std::string Text = testprogs::diamondChainSource(6000);
  for (PipelineKind Kind : AllKinds) {
    auto Run = [&](LivenessAlgorithm Algo, std::string &Printed) {
      auto M = parseSingleFunctionOrDie(Text);
      Function &F = *M->functions()[0];
      PipelineOptions Opts;
      Opts.Kind = Kind;
      Opts.Analyses.Liveness = Algo;
      PipelineResult R = runPipeline(F, Opts);
      Printed = printFunction(F);
      return R;
    };
    std::string SparseText, DenseText;
    PipelineResult Sparse = Run(LivenessAlgorithm::Sparse, SparseText);
    PipelineResult Dense = Run(LivenessAlgorithm::Dense, DenseText);
    EXPECT_EQ(SparseText, DenseText) << pipelineName(Kind);
    EXPECT_EQ(Sparse.StaticCopies, Dense.StaticCopies) << pipelineName(Kind);
    EXPECT_EQ(Sparse.PhisInserted, Dense.PhisInserted) << pipelineName(Kind);
    if (Kind == PipelineKind::New)
      EXPECT_LT(Sparse.PeakBytes * 10, Dense.PeakBytes);
    else
      EXPECT_EQ(Sparse.PeakBytes, Dense.PeakBytes) << pipelineName(Kind);
  }
}

TEST(PipelineTest, CheckedPipelineByteIdenticalAcrossAnalysisStrategies) {
  for (const char *Text :
       {testprogs::VirtualSwap, testprogs::SwapLoop, testprogs::LostCopy}) {
    auto RefM = parseSingleFunctionOrDie(Text);
    Function &RefF = *RefM->functions()[0];
    PipelineOptions RefOpts;
    RefOpts.Analyses = legacyAnalyses();
    RefOpts.CheckPartition = true;
    PipelineResult RefR = runPipeline(RefF, RefOpts);
    std::string RefText = printFunction(RefF);

    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    PipelineOptions Opts; // Default: dsu+sparse.
    Opts.CheckPartition = true;
    PipelineResult R = runPipeline(F, Opts);
    EXPECT_EQ(printFunction(F), RefText);
    EXPECT_EQ(R.PeakBytes, RefR.PeakBytes);
    EXPECT_EQ(R.StaticCopies, RefR.StaticCopies);
  }
}

TEST(PipelineTest, CheckedRunMatchesUncheckedRun) {
  // A passing audit is invisible in the result: same code, same fields and
  // the same phase samples (the audit's record is not one of them).
  for (const char *Text : {testprogs::VirtualSwap, testprogs::SwapLoop,
                           testprogs::LostCopy, testprogs::NestedLoops}) {
    auto Run = [&](bool Check, std::string &Printed) {
      auto M = parseSingleFunctionOrDie(Text);
      RecordList Records;
      Instrumentation Instr;
      Instr.Records = &Records;
      PipelineOptions Opts;
      Opts.Instr = &Instr;
      Opts.CheckPartition = Check;
      PipelineResult R = runPipeline(*M->functions()[0], Opts);
      Printed = printFunction(*M->functions()[0]);
      return R;
    };
    std::string CheckedText, PlainText;
    PipelineResult Checked = Run(true, CheckedText);
    PipelineResult Plain = Run(false, PlainText);
    EXPECT_EQ(CheckedText, PlainText);
    EXPECT_EQ(Checked.PeakBytes, Plain.PeakBytes);
    EXPECT_EQ(Checked.StaticCopies, Plain.StaticCopies);
    EXPECT_EQ(Checked.PhisInserted, Plain.PhisInserted);
    std::vector<std::string> CheckedNames, PlainNames;
    for (const PhaseSample &P : Checked.Phases)
      CheckedNames.push_back(P.Name);
    for (const PhaseSample &P : Plain.Phases)
      PlainNames.push_back(P.Name);
    EXPECT_EQ(CheckedNames, PlainNames);
    EXPECT_FALSE(PlainNames.empty());
  }
}

TEST(PipelineTest, CheckPartitionIgnoredOutsideNew) {
  for (PipelineKind Kind : {PipelineKind::Standard, PipelineKind::Briggs,
                            PipelineKind::BriggsImproved}) {
    auto M = parseSingleFunctionOrDie(testprogs::SwapLoop);
    PipelineOptions Opts;
    Opts.Kind = Kind;
    Opts.CheckPartition = true;
    PipelineResult R = runPipeline(*M->functions()[0], Opts);
    EXPECT_EQ(R.Kind, Kind);
    EXPECT_EQ(M->functions()[0]->phiCount(), 0u) << pipelineName(Kind);
  }
}

} // namespace
