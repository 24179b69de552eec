//===- tests/coalesce/FastCoalescerTest.cpp -------------------------------===//

#include "coalesce/FastCoalescer.h"

#include "../common/TestPrograms.h"
#include "../common/TestUtils.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/CoalescingChecker.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Variable.h"
#include "ir/Verifier.h"
#include "ssa/ParallelCopy.h"
#include "ssa/SSABuilder.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

/// Runs the full "New" pipeline of the paper on \p F: split critical edges,
/// build pruned SSA with copy folding, coalesce out of SSA.
FastCoalesceStats newPipeline(Function &F) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.FoldCopies = true;
  buildSSA(F, DT, Opts);
  Liveness LV(F);
  return coalesceSSA(F, DT, LV);
}

/// Same preparation but stopping after the partition, for rep() inspection.
struct PartitionedProgram {
  std::unique_ptr<Module> M;
  Function *F = nullptr;
  std::unique_ptr<DominatorTree> DT;
  std::unique_ptr<Liveness> LV;
  std::unique_ptr<FastCoalescer> Coalescer;

  explicit PartitionedProgram(const char *Text) {
    M = parseSingleFunctionOrDie(Text);
    F = M->functions()[0].get();
    splitCriticalEdges(*F);
    DT = std::make_unique<DominatorTree>(*F);
    SSABuildOptions Opts;
    Opts.FoldCopies = true;
    buildSSA(*F, *DT, Opts);
    LV = std::make_unique<Liveness>(*F);
    Coalescer = std::make_unique<FastCoalescer>(*F, *DT, *LV);
    Coalescer->computePartition();
  }
};

TEST(FastCoalescerTest, CountedLoopCoalescesToZeroCopies) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  FastCoalesceStats Stats = newPipeline(F);
  EXPECT_EQ(Stats.CopiesInserted, 0u)
      << "i and sum coalesce fully around the loop";
  EXPECT_EQ(F.staticCopyCount(), 0u);
  EXPECT_EQ(F.phiCount(), 0u);
}

TEST(FastCoalescerTest, DiamondNeedsExactlyOneCopy) {
  auto M = parseSingleFunctionOrDie(testprogs::Diamond);
  Function &F = *M->functions()[0];
  FastCoalesceStats Stats = newPipeline(F);
  // max(a,b): one arm coalesces with the result, the other needs one copy.
  EXPECT_EQ(Stats.CopiesInserted, 1u);
}

TEST(FastCoalescerTest, VirtualSwapCostsThreeCopies) {
  // Figures 3 and 4: the naive algorithm inserts four copies (two per arm);
  // the coalescer keeps one arm copy free and pays a cycle temp on the
  // other, for three.
  auto M = parseSingleFunctionOrDie(testprogs::VirtualSwap);
  Function &F = *M->functions()[0];
  FastCoalesceStats Stats = newPipeline(F);
  EXPECT_EQ(Stats.CopiesInserted, 3u);
  EXPECT_EQ(Stats.TempsUsed, 1u);
  EXPECT_GT(Stats.FilterRejections, 0u);
}

TEST(FastCoalescerTest, VirtualSwapStaysCorrectOnBothArms) {
  auto MRef = parseSingleFunctionOrDie(testprogs::VirtualSwap);
  auto MGot = parseSingleFunctionOrDie(testprogs::VirtualSwap);
  Function &Got = *MGot->functions()[0];
  newPipeline(Got);
  testutils::expectSameBehavior(*MRef->functions()[0], Got, {0});
  testutils::expectSameBehavior(*MRef->functions()[0], Got, {1});
}

TEST(FastCoalescerTest, NeverWorseThanStandardDestruction) {
  for (const char *Text :
       {testprogs::SumLoop, testprogs::Diamond, testprogs::VirtualSwap,
        testprogs::SwapLoop, testprogs::LostCopy, testprogs::ArraySum,
        testprogs::NestedLoops}) {
    auto MNew = parseSingleFunctionOrDie(Text);
    auto MStd = parseSingleFunctionOrDie(Text);
    Function &FNew = *MNew->functions()[0];
    Function &FStd = *MStd->functions()[0];
    newPipeline(FNew);
    {
      splitCriticalEdges(FStd);
      DominatorTree DT(FStd);
      SSABuildOptions Opts;
      Opts.FoldCopies = true;
      buildSSA(FStd, DT, Opts);
      lowerPhis(FStd, [](Variable *V) { return V; });
    }
    EXPECT_LE(FNew.staticCopyCount(), FStd.staticCopyCount())
        << FNew.name() << ": the coalescer left more copies than the naive "
        << "instantiation";
  }
}

TEST(FastCoalescerTest, PartitionPassesTheInterferenceChecker) {
  for (const char *Text :
       {testprogs::StraightLine, testprogs::SumLoop, testprogs::Diamond,
        testprogs::VirtualSwap, testprogs::SwapLoop, testprogs::LostCopy,
        testprogs::ArraySum, testprogs::NestedLoops}) {
    PartitionedProgram P(Text);
    std::string Error;
    EXPECT_TRUE(checkCoalescing(
        *P.F, *P.LV,
        [&](const Variable *V) { return P.Coalescer->rep(V); }, Error))
        << P.F->name() << ": " << Error;
  }
}

TEST(FastCoalescerTest, LoopCarriedNamesShareOneRep) {
  PartitionedProgram P(testprogs::SumLoop);
  Variable *I1 = P.F->findVariable("i.1");
  Variable *I2 = P.F->findVariable("i.2");
  ASSERT_NE(I1, nullptr);
  ASSERT_NE(I2, nullptr);
  EXPECT_EQ(P.Coalescer->rep(I1), P.Coalescer->rep(I2))
      << "the induction variable's versions all map to one location";
}

TEST(FastCoalescerTest, RepIsIdempotentAndConsistent) {
  PartitionedProgram P(testprogs::NestedLoops);
  for (const auto &V : P.F->variables()) {
    Variable *R = P.Coalescer->rep(V);
    EXPECT_EQ(P.Coalescer->rep(R), R) << "rep must be a fixed point";
  }
}

TEST(FastCoalescerTest, RewriteProducesVerifiableCode) {
  for (const char *Text :
       {testprogs::SumLoop, testprogs::VirtualSwap, testprogs::SwapLoop,
        testprogs::NestedLoops}) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    newPipeline(F);
    std::string Error;
    EXPECT_TRUE(verifyFunction(F, Error)) << F.name() << ": " << Error;
    EXPECT_TRUE(isStrict(F)) << F.name();
    EXPECT_EQ(F.phiCount(), 0u);
  }
}

class FastCoalescerSemanticsTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(FastCoalescerSemanticsTest, PipelinePreservesSemantics) {
  auto MRef = parseSingleFunctionOrDie(GetParam());
  auto MGot = parseSingleFunctionOrDie(GetParam());
  Function &Ref = *MRef->functions()[0];
  Function &Got = *MGot->functions()[0];
  newPipeline(Got);
  for (const auto &Args : testutils::interestingArgs(
           static_cast<unsigned>(Ref.params().size())))
    testutils::expectSameBehavior(Ref, Got, Args);
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, FastCoalescerSemanticsTest,
                         ::testing::Values(testprogs::StraightLine,
                                           testprogs::SumLoop,
                                           testprogs::Diamond,
                                           testprogs::VirtualSwap,
                                           testprogs::SwapLoop,
                                           testprogs::LostCopy,
                                           testprogs::ArraySum,
                                           testprogs::NestedLoops));

TEST(FastCoalescerTest, UnfoldedCopiesGetCoalescedBySelfCopyElision) {
  // Without folding, explicit copies survive into SSA; the partition then
  // maps both sides to one location and the rewrite drops the self-copy.
  auto M = parseSingleFunctionOrDie(testprogs::Diamond);
  Function &F = *M->functions()[0];
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.FoldCopies = false;
  buildSSA(F, DT, Opts);
  Liveness LV(F);
  coalesceSSA(F, DT, LV);
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  auto MRef = parseSingleFunctionOrDie(testprogs::Diamond);
  for (const auto &Args : testutils::interestingArgs(2))
    testutils::expectSameBehavior(*MRef->functions()[0], F, Args);
}

TEST(FastCoalescerTest, StatsAccountBytes) {
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  FastCoalesceStats Stats = newPipeline(F);
  EXPECT_GT(Stats.PeakBytes, 0u);
}

} // namespace
