//===- tests/coalesce/CoalescerOptionsTest.cpp ----------------------------===//
//
// Every configuration of the fast coalescer — the paper's lazy two-phase
// algorithm, the multi-round re-coalescing heuristic, and the eager
// union-time checks — must produce interference-free partitions and
// semantically identical code. Only the number of copies may differ.
//
//===----------------------------------------------------------------------===//

#include "coalesce/FastCoalescer.h"

#include "../common/TestPrograms.h"
#include "../common/TestUtils.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/CoalescingChecker.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"
#include "ssa/SSABuilder.h"
#include "support/Stats.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

FastCoalescerOptions optionsFor(unsigned Mode) {
  FastCoalescerOptions Opts;
  switch (Mode) {
  case 0: // Eager default.
    break;
  case 1: // The paper's lazy single-round algorithm.
    Opts.EagerSetChecks = false;
    Opts.RecoalesceEvicted = false;
    break;
  case 2: // Lazy with re-coalescing rounds.
    Opts.EagerSetChecks = false;
    break;
  case 3: // Lazy, no filters, child victims.
    Opts.EagerSetChecks = false;
    Opts.UseFilters = false;
    Opts.CostBasedVictims = false;
    break;
  default:
    ADD_FAILURE() << "unknown mode";
  }
  return Opts;
}

class CoalescerModeTest
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(CoalescerModeTest, GeneratedProgramsStayCorrectAndInterferenceFree) {
  auto [Seed, Mode] = GetParam();
  GeneratorOptions GenOpts;
  GenOpts.Seed = Seed;
  GenOpts.SizeBudget = 8 + Seed % 22;
  GenOpts.CopyPercent = 12 + (Seed * 9) % 30;
  GenOpts.NumParams = 1 + Seed % 3;

  Module MRef, MGot;
  Function *Ref = generateProgram(MRef, "g", GenOpts);
  Function *Got = generateProgram(MGot, "g", GenOpts);

  splitCriticalEdges(*Got);
  DominatorTree DT(*Got);
  SSABuildOptions SOpts;
  SOpts.FoldCopies = true;
  buildSSA(*Got, DT, SOpts);
  Liveness LV(*Got);

  FastCoalescer Coalescer(*Got, DT, LV, optionsFor(Mode));
  Coalescer.computePartition();

  // The partition must be interference free under the independent checker.
  std::string Error;
  EXPECT_TRUE(checkCoalescing(
      *Got, LV, [&](const Variable *V) { return Coalescer.rep(V); }, Error))
      << "mode " << Mode << " seed " << Seed << ": " << Error;

  Coalescer.rewrite();
  ASSERT_TRUE(verifyFunction(*Got, Error)) << Error;
  EXPECT_EQ(Got->phiCount(), 0u);
  std::vector<int64_t> Args = {static_cast<int64_t>(Seed % 5), 3, 1};
  Args.resize(Ref->params().size());
  testutils::expectSameBehavior(*Ref, *Got, Args);
}

INSTANTIATE_TEST_SUITE_P(SeedsTimesModes, CoalescerModeTest,
                         ::testing::Combine(::testing::Range(1u, 26u),
                                            ::testing::Values(0u, 1u, 2u,
                                                              3u)));

TEST(CoalescerModeTest, EagerModeNeverLeavesMoreCopiesThanLazy) {
  unsigned EagerWorse = 0;
  for (unsigned Seed = 1; Seed != 30; ++Seed) {
    GeneratorOptions GenOpts;
    GenOpts.Seed = Seed;
    GenOpts.SizeBudget = 14;
    GenOpts.CopyPercent = 25;
    unsigned Copies[2];
    for (unsigned Mode : {0u, 1u}) {
      Module M;
      Function *F = generateProgram(M, "g", GenOpts);
      splitCriticalEdges(*F);
      DominatorTree DT(*F);
      SSABuildOptions SOpts;
      SOpts.FoldCopies = true;
      buildSSA(*F, DT, SOpts);
      Liveness LV(*F);
      coalesceSSA(*F, DT, LV, optionsFor(Mode));
      Copies[Mode] = F->staticCopyCount();
    }
    if (Copies[0] > Copies[1])
      ++EagerWorse;
  }
  EXPECT_LE(EagerWorse, 2u)
      << "rejecting unions up front should rarely lose to eviction";
}

TEST(CoalescerModeTest, TraceNarratesDecisions) {
  auto M = parseSingleFunctionOrDie(testprogs::VirtualSwap);
  Function &F = *M->functions()[0];
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions SOpts;
  SOpts.FoldCopies = true;
  buildSSA(F, DT, SOpts);
  Liveness LV(F);

  char Buffer[4096] = {0};
  std::FILE *Stream = fmemopen(Buffer, sizeof(Buffer) - 1, "w");
  ASSERT_NE(Stream, nullptr);
  Instrumentation Instr;
  Instr.Narrate = Stream;
  FastCoalescerOptions Opts;
  Opts.Instr = &Instr;
  coalesceSSA(F, DT, LV, Opts);
  std::fclose(Stream);
  EXPECT_NE(std::string(Buffer).find("keep"), std::string::npos)
      << "the virtual swap must trigger at least one narrated rejection";
}

} // namespace
