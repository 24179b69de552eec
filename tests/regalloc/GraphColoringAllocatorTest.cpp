//===- tests/regalloc/GraphColoringAllocatorTest.cpp ----------------------===//

#include "regalloc/GraphColoringAllocator.h"

#include "../common/TestPrograms.h"
#include "analysis/Liveness.h"
#include "baseline/InterferenceGraph.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Variable.h"
#include <algorithm>
#include "pipeline/Pipeline.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

/// Asserts no interfering pair shares a register.
void checkColoring(const Function &F, const RegAllocResult &R) {
  Liveness LV(F);
  InterferenceGraph Graph(F, LV);
  for (const auto &A : F.variables())
    for (const auto &B : F.variables()) {
      if (A->id() >= B->id())
        continue;
      int RA = R.RegisterOf[A->id()], RB = R.RegisterOf[B->id()];
      if (RA < 0 || RB < 0 || RA != RB)
        continue;
      EXPECT_FALSE(Graph.interfere(A, B))
          << A->name() << " and " << B->name() << " share r" << RA;
    }
}

TEST(GraphColoringAllocatorTest, StraightLineNeedsFewRegisters) {
  auto M = parseSingleFunctionOrDie(testprogs::StraightLine);
  Function &F = *M->functions()[0];
  RegAllocOptions Opts;
  Opts.Machine = uniformMachine(4);
  RegAllocResult R = allocateRegisters(F, Opts);
  EXPECT_TRUE(R.Spilled.empty());
  EXPECT_LE(R.RegistersUsed, 4u);
  checkColoring(F, R);
}

TEST(GraphColoringAllocatorTest, LoopNeedsAtLeastThreeRegisters) {
  // i, sum, n are simultaneously live in the loop.
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  RegAllocOptions Opts;
  Opts.Machine = uniformMachine(8);
  RegAllocResult R = allocateRegisters(F, Opts);
  EXPECT_TRUE(R.Spilled.empty());
  EXPECT_GE(R.RegistersUsed, 3u);
  checkColoring(F, R);
}

TEST(GraphColoringAllocatorTest, TooFewRegistersForcesSpills) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  RegAllocOptions Opts;
  Opts.Machine = uniformMachine(1);
  RegAllocResult R = allocateRegisters(F, Opts);
  EXPECT_FALSE(R.Spilled.empty());
  checkColoring(F, R);
}

TEST(GraphColoringAllocatorTest, SpillsPreferCheapValues) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  RegAllocOptions Opts;
  Opts.Machine = uniformMachine(2);
  RegAllocResult R = allocateRegisters(F, Opts);
  checkColoring(F, R);
  // The loop-resident names (i, sum) are 10x costlier than entry-only ones;
  // at least one of them must still hold a register.
  bool LoopNameColored = false;
  for (const char *Name : {"i", "sum"})
    if (R.RegisterOf[F.findVariable(Name)->id()] >= 0)
      LoopNameColored = true;
  EXPECT_TRUE(LoopNameColored);
}

TEST(GraphColoringAllocatorTest, ColoringIsValidOnAllKernelsAfterNew) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    Function &F = *M->functions()[0];
    runPipeline(F, PipelineKind::New);
    RegAllocOptions Opts;
    Opts.Machine = uniformMachine(6);
    RegAllocResult R = allocateRegisters(F, Opts);
    checkColoring(F, R);
    EXPECT_LE(R.RegistersUsed, 6u) << Spec.Name;
  }
}

TEST(GraphColoringAllocatorTest, ManyRegistersMeansNoSpills) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    Function &F = *M->functions()[0];
    runPipeline(F, PipelineKind::New);
    RegAllocOptions Opts;
    Opts.Machine = uniformMachine(64);
    RegAllocResult R = allocateRegisters(F, Opts);
    EXPECT_TRUE(R.Spilled.empty()) << Spec.Name;
    checkColoring(F, R);
  }
}

TEST(GraphColoringAllocatorTest, DeterministicAssignments) {
  auto M1 = parseSingleFunctionOrDie(testprogs::NestedLoops);
  auto M2 = parseSingleFunctionOrDie(testprogs::NestedLoops);
  RegAllocOptions Opts;
  Opts.Machine = uniformMachine(4);
  RegAllocResult R1 = allocateRegisters(*M1->functions()[0], Opts);
  RegAllocResult R2 = allocateRegisters(*M2->functions()[0], Opts);
  EXPECT_EQ(R1.RegisterOf, R2.RegisterOf);
  EXPECT_EQ(R1.Spilled.size(), R2.Spilled.size());
}

TEST(GraphColoringAllocatorTest, CoalescingReducesRegisterPressureVsStandard) {
  // The New pipeline merges phi webs into single locations; Standard leaves
  // every SSA name separate plus its copies. Coloring the former should
  // never need more registers.
  unsigned WorseCount = 0;
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto MN = Spec.materialize();
    auto MS = Spec.materialize();
    runPipeline(*MN->functions()[0], PipelineKind::New);
    runPipeline(*MS->functions()[0], PipelineKind::Standard);
    RegAllocOptions Opts;
    Opts.Machine = uniformMachine(32);
    RegAllocResult RN = allocateRegisters(*MN->functions()[0], Opts);
    RegAllocResult RS = allocateRegisters(*MS->functions()[0], Opts);
    if (RN.RegistersUsed > RS.RegistersUsed)
      ++WorseCount;
  }
  EXPECT_LE(WorseCount, 2u)
      << "coalesced code should rarely color worse than naive code";
}

TEST(GraphColoringAllocatorTest, NamesAbsentFromTheCodeGetNoRegister) {
  // SSA construction and coalescing leave names no instruction mentions
  // (tomcatv keeps 26 of them). They are never live, so they take no
  // register; every name the code mentions, and every parameter, does.
  auto M = kernelSuite()[0].materialize();
  Function &F = *M->functions()[0];
  runPipeline(F, PipelineKind::New);
  std::vector<bool> InCode(F.numVariables(), false);
  for (const Variable *P : F.params())
    InCode[P->id()] = true;
  for (const auto &B : F.blocks())
    for (const Instruction *I : B->insts()) {
      I->forEachUsedVar([&](const Variable *V) { InCode[V->id()] = true; });
      if (const Variable *Def = I->getDef())
        InCode[Def->id()] = true;
    }
  ASSERT_NE(std::count(InCode.begin(), InCode.end(), false), 0)
      << "the pipeline left no unused name to test with";

  RegAllocOptions Opts;
  Opts.Machine = uniformMachine(8);
  RegAllocResult R = allocateRegisters(F, Opts);
  ASSERT_TRUE(R.Spilled.empty());
  for (const Variable *V : F.variables())
    EXPECT_EQ(R.RegisterOf[V->id()] >= 0, InCode[V->id()]) << V->name();
  checkColoring(F, R);
}

} // namespace
