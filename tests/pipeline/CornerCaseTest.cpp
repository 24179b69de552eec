//===- tests/pipeline/CornerCaseTest.cpp ----------------------------------===//
//
// Degenerate programs through every pipeline: single blocks, no variables,
// no phis, immediate-only flows, parameters that are never used, blocks
// that only branch. These shapes skip whole phases and historically hide
// off-by-one bugs.
//
//===----------------------------------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "../common/ShapeSources.h"
#include "../common/TestUtils.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "service/CompilationService.h"
#include <gtest/gtest.h>

#include <chrono>
#include <string>

using namespace fcc;
using testprogs::chainSource;
using testprogs::fatBlockSource;

namespace {

struct CornerCase {
  const char *Name;
  const char *Text;
  std::vector<int64_t> Args;
};

const CornerCase Cases[] = {
    {"ret-const", R"(
func @f() {
entry:
  ret 42
}
)", {}},
    {"ret-param", R"(
func @f(%a) {
entry:
  ret %a
}
)", {7}},
    {"unused-params", R"(
func @f(%a, %b, %c) {
entry:
  ret 1
}
)", {1, 2, 3}},
    {"immediate-only", R"(
func @f() {
entry:
  %x = const 2
  %y = mul %x, 3
  ret %y
}
)", {}},
    {"branch-chain", R"(
func @f(%a) {
entry:
  br b1
b1:
  br b2
b2:
  br b3
b3:
  ret %a
}
)", {9}},
    {"self-contained-diamond", R"(
func @f(%c) {
entry:
  cbr %c, l, r
l:
  br j
r:
  br j
j:
  ret %c
}
)", {1}},
    {"zero-trip-loop", R"(
func @f(%n) {
entry:
  %i = const 0
  br head
head:
  %c = cmplt %i, 0
  cbr %c, body, exit
body:
  %i = add %i, 1
  br head
exit:
  ret %i
}
)", {5}},
    {"copy-only-body", R"(
func @f(%a) {
entry:
  %b = copy %a
  %c = copy %b
  ret %c
}
)", {11}},
    {"nested-diamonds", R"(
func @f(%a, %b) {
entry:
  cbr %a, o1, o2
o1:
  cbr %b, i1, i2
o2:
  br j
i1:
  %x = const 1
  br ij
i2:
  %x = const 2
  br ij
ij:
  %y = add %x, 1
  br j
j:
  ret %b
}
)", {1, 0}},
};

class CornerCaseTest
    : public ::testing::TestWithParam<std::tuple<size_t, int>> {};

TEST_P(CornerCaseTest, AllPipelinesHandleDegenerateShapes) {
  auto [Index, KindInt] = GetParam();
  const CornerCase &Case = Cases[Index];
  auto MRef = parseSingleFunctionOrDie(Case.Text);
  auto MGot = parseSingleFunctionOrDie(Case.Text);
  Function &Got = *MGot->functions()[0];
  runPipeline(Got, static_cast<PipelineKind>(KindInt));
  std::string Error;
  ASSERT_TRUE(verifyFunction(Got, Error)) << Case.Name << ": " << Error;
  EXPECT_EQ(Got.phiCount(), 0u);
  testutils::expectSameBehavior(*MRef->functions()[0], Got, Case.Args);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CornerCaseTest,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(Cases)),
                       ::testing::Values(0, 1, 2, 3)));

TEST(DeepChainTest, CompilesAtTheDefaultStackInlineAndOnPoolWorkers) {
  // The dominator tree is as deep as the function is long, so every walk
  // over it must be iterative: at 200 000 blocks, a walk recursing once per
  // tree level overflows the default 8 MB thread stack.
  const std::string Text = chainSource(200000);
  for (PipelineKind Kind : {PipelineKind::New, PipelineKind::Standard,
                            PipelineKind::BriggsImproved}) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    runPipeline(F, Kind);
    std::string Error;
    ASSERT_TRUE(verifyFunction(F, Error)) << pipelineName(Kind) << ": " << Error;
    EXPECT_EQ(testutils::run(F, {3}).ReturnValue, 8) << pipelineName(Kind);
  }

  // Two units on two jobs: the compiles run on pool worker threads.
  ServiceOptions Opts;
  Opts.Jobs = 2;
  BatchReport R = CompilationService(Opts).run(
      {WorkUnit::fromSource("c0", Text), WorkUnit::fromSource("c1", Text)});
  EXPECT_EQ(R.Jobs, 2u);
  for (const UnitReport &U : R.Units)
    EXPECT_TRUE(U.ok()) << U.Name << ": " << U.Error;
}

TEST(FatBlockTest, CompilesAHundredThousandStatementBlockInLinearTime) {
  // Renaming folds about half of the block's statements away. Erasing
  // them one at a time costs a search and a shift each, which is
  // quadratic in the block's length (seconds at this size).
  const std::string Text = fatBlockSource(100000, 7);
  auto Ref = parseSingleFunctionOrDie(Text);
  ExecutionResult Want = testutils::run(*Ref->functions()[0], {3});
  ASSERT_TRUE(Want.Completed);
  for (PipelineKind Kind : {PipelineKind::New, PipelineKind::Standard}) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    auto Start = std::chrono::steady_clock::now();
    runPipeline(F, Kind);
    std::chrono::duration<double> Took =
        std::chrono::steady_clock::now() - Start;
    EXPECT_LT(Took.count(), 0.5) << pipelineName(Kind);
    std::string Error;
    ASSERT_TRUE(verifyFunction(F, Error))
        << pipelineName(Kind) << ": " << Error;
    ExecutionResult Got = testutils::run(F, {3});
    EXPECT_TRUE(Got.Completed) << pipelineName(Kind);
    EXPECT_EQ(Got.ReturnValue, Want.ReturnValue) << pipelineName(Kind);
  }
}

} // namespace
