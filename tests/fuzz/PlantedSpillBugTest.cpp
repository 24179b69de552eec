//===- tests/fuzz/PlantedSpillBugTest.cpp ---------------------------------===//
//
// End-to-end acceptance test for the spill-rewrite leg of the oracle. This
// binary compiles its own regalloc/SpillRewriter.cpp with
// FCC_FUZZ_PLANT_SPILL_BUG, which forces every spill and reload onto slot 0
// so simultaneously-spilled values clobber each other; the rest comes from
// fcc. The coloring itself stays sound (slots are not registers), the
// rewritten function still verifies, and the allocation re-check still
// passes: only executing the rewritten code against the reference can
// expose the bug. The oracle's "/spill" configuration must find it and the
// reducer must shrink it.
//
//===----------------------------------------------------------------------===//

#include "fuzz/DifferentialOracle.h"
#include "fuzz/Fuzzer.h"

#include "../common/TestPrograms.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

/// Two registers force multiple victims per function, which is what makes
/// the shared slot observable — a single spilled value agrees with itself.
OracleOptions tightBank() {
  OracleOptions Opts;
  Opts.Registers = 2;
  return Opts;
}

TEST(PlantedSpillBugTest, OracleCatchesTheBugOnPressureHeavyPrograms) {
  unsigned Diverged = 0;
  for (const char *Text : {testprogs::NestedLoops, testprogs::ArraySum,
                           testprogs::SwapLoop, testprogs::SumLoop}) {
    OracleResult R = runDifferentialOracle(Text, tightBank());
    ASSERT_TRUE(R.InputOk) << R.InputError;
    for (const Divergence &D : R.Divergences) {
      // The bug lives strictly downstream of allocation: every divergence
      // it causes must sit on the spill-rewrite configuration.
      EXPECT_NE(D.Config.find("/spill"), std::string::npos)
          << divergenceKindName(D.Kind) << ": " << D.Detail;
      ++Diverged;
    }
  }
  EXPECT_GT(Diverged, 0u)
      << "the planted slot-collision bug was not observable on any "
         "pressure-heavy canonical program at a two-register bank";
}

TEST(PlantedSpillBugTest, CampaignFindsAndReducesTheBug) {
  FuzzOptions Opts;
  Opts.Seed = 1;
  Opts.Runs = 300;
  Opts.Jobs = 1; // Sequential + MaxFindings stays deterministic.
  Opts.MaxFindings = 1;
  Opts.Oracle = tightBank();

  FuzzReport Report = runFuzzCampaign(Opts);
  ASSERT_FALSE(Report.Findings.empty())
      << "300 runs at a two-register bank did not expose the planted bug";

  const FuzzFinding &F = Report.Findings.front();
  EXPECT_EQ(F.Kind, "exec-mismatch") << F.Detail;
  EXPECT_NE(F.Config.find("/spill"), std::string::npos) << F.Config;
  EXPECT_FALSE(F.Detail.empty());

  // Acceptance bar: the repro shrinks to a handful of blocks.
  EXPECT_LE(F.Reduction.BlocksAfter, 10u)
      << "reduced repro still has " << F.Reduction.BlocksAfter
      << " blocks:\n"
      << F.ReducedIr;
  EXPECT_LE(F.Reduction.BlocksAfter, F.Reduction.BlocksBefore);

  // The reduced repro must still fail under the same oracle knobs, for
  // replay value.
  OracleResult Replay = runDifferentialOracle(F.ReducedIr, Opts.Oracle);
  EXPECT_TRUE(Replay.InputOk) << Replay.InputError;
  EXPECT_FALSE(Replay.Divergences.empty());
}

} // namespace
