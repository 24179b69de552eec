//===- tests/fuzz/PlantedBugTest.cpp --------------------------------------===//
//
// End-to-end acceptance test for the fuzzing subsystem. This binary
// compiles its own ssa/ParallelCopy.cpp with FCC_FUZZ_PLANT_BUG, which
// drops the last sequenced copy of every parallel-copy group in the phi
// lowering, so under Standard and New alike; the rest comes from fcc. The
// partition audit runs before that point and still passes, so only
// differential execution can expose the bug; the fuzzer must find it and
// the reducer must shrink it to a small repro.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialOracle.h"
#include "fuzz/Fuzzer.h"

#include "../common/TestPrograms.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

TEST(PlantedBugTest, OracleCatchesTheBugOnSwapHeavyPrograms) {
  // The paper's swap problems force parallel copies the coalescer cannot
  // remove; losing one of their sequenced copies must change behavior on
  // at least one of them.
  unsigned Diverged = 0;
  for (const char *Text : {testprogs::VirtualSwap, testprogs::SwapLoop,
                           testprogs::LostCopy, testprogs::NestedLoops}) {
    OracleResult R = runDifferentialOracle(Text);
    ASSERT_TRUE(R.InputOk) << R.InputError;
    if (!R.Divergences.empty())
      ++Diverged;
  }
  EXPECT_GT(Diverged, 0u)
      << "the planted copy-dropping bug was not observable on any "
         "swap-heavy canonical program";
}

TEST(PlantedBugTest, CampaignFindsAndReducesTheBug) {
  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Runs = 300;
  Opts.Jobs = 1; // Sequential + MaxFindings stays deterministic.
  Opts.MaxFindings = 1;

  FuzzReport Report = runFuzzCampaign(Opts);
  ASSERT_FALSE(Report.Findings.empty())
      << "300 runs did not expose the planted bug";

  const FuzzFinding &F = Report.Findings.front();
  EXPECT_EQ(F.Kind, "exec-mismatch") << F.Detail;
  EXPECT_FALSE(F.Config.empty());
  EXPECT_FALSE(F.Detail.empty());

  // Acceptance bar: the repro shrinks to a handful of blocks.
  EXPECT_LE(F.Reduction.BlocksAfter, 10u)
      << "reduced repro still has " << F.Reduction.BlocksAfter
      << " blocks:\n"
      << F.ReducedIr;
  EXPECT_LE(F.Reduction.BlocksAfter, F.Reduction.BlocksBefore);

  // The reduced repro must still fail, for replay value.
  OracleResult Replay = runDifferentialOracle(F.ReducedIr);
  EXPECT_TRUE(Replay.InputOk) << Replay.InputError;
  EXPECT_FALSE(Replay.Divergences.empty());
}

} // namespace
