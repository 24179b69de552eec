//===- tests/support/ArgParseTest.cpp -------------------------------------===//
//
// Regression tests for the strict CLI integer parsers. The two historical
// bugs these guard against: strtoll parsing "x" as 0 with no diagnostic
// (fcc-opt --run), and strtoull wrapping "-1" to 2^64-1 (fcc-batch --jobs).
// The flag helpers the tools share print their diagnostic, so those tests
// capture stderr.
//
//===----------------------------------------------------------------------===//

#include "support/ArgParse.h"

#include <gtest/gtest.h>

using namespace fcc;

namespace {

TEST(ParseInt64ArgTest, AcceptsDecimalAndSigns) {
  int64_t V = -1;
  EXPECT_TRUE(parseInt64Arg("0", V));
  EXPECT_EQ(V, 0);
  EXPECT_TRUE(parseInt64Arg("42", V));
  EXPECT_EQ(V, 42);
  EXPECT_TRUE(parseInt64Arg("-7", V));
  EXPECT_EQ(V, -7);
  EXPECT_TRUE(parseInt64Arg("+9", V));
  EXPECT_EQ(V, 9);
  EXPECT_TRUE(parseInt64Arg("9223372036854775807", V));
  EXPECT_EQ(V, INT64_MAX);
  EXPECT_TRUE(parseInt64Arg("-9223372036854775808", V));
  EXPECT_EQ(V, INT64_MIN);
}

TEST(ParseInt64ArgTest, RejectsNonNumericAndPartial) {
  int64_t V = 0;
  EXPECT_FALSE(parseInt64Arg("", V));
  EXPECT_FALSE(parseInt64Arg("x", V));
  EXPECT_FALSE(parseInt64Arg("3x", V)); // The silent-zero strtoll trap.
  EXPECT_FALSE(parseInt64Arg("x3", V));
  EXPECT_FALSE(parseInt64Arg(" 3", V));
  EXPECT_FALSE(parseInt64Arg("3 ", V));
  EXPECT_FALSE(parseInt64Arg("1.5", V));
  EXPECT_FALSE(parseInt64Arg("--5", V));
}

TEST(ParseInt64ArgTest, RejectsOverflow) {
  int64_t V = 0;
  EXPECT_FALSE(parseInt64Arg("9223372036854775808", V));
  EXPECT_FALSE(parseInt64Arg("-9223372036854775809", V));
  EXPECT_FALSE(parseInt64Arg("99999999999999999999999999", V));
}

TEST(ParseUint64ArgTest, AcceptsPlainDigits) {
  uint64_t V = 1;
  EXPECT_TRUE(parseUint64Arg("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseUint64Arg("8", V));
  EXPECT_EQ(V, 8u);
  EXPECT_TRUE(parseUint64Arg("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);
}

TEST(ParseUint64ArgTest, RejectsSignsPartialAndOverflow) {
  uint64_t V = 0;
  EXPECT_FALSE(parseUint64Arg("", V));
  EXPECT_FALSE(parseUint64Arg("-1", V)); // The strtoull wrap trap.
  EXPECT_FALSE(parseUint64Arg("+5", V));
  EXPECT_FALSE(parseUint64Arg("4x", V));
  EXPECT_FALSE(parseUint64Arg(" 4", V));
  EXPECT_FALSE(parseUint64Arg("18446744073709551616", V));
}

TEST(SplitIntListTest, ParsesCommaSeparatedValues) {
  std::vector<int64_t> Out;
  std::string Bad;
  ASSERT_TRUE(splitIntList("1,-2,30", Out, Bad));
  ASSERT_EQ(Out.size(), 3u);
  EXPECT_EQ(Out[0], 1);
  EXPECT_EQ(Out[1], -2);
  EXPECT_EQ(Out[2], 30);

  Out.clear();
  ASSERT_TRUE(splitIntList("7", Out, Bad));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0], 7);
}

TEST(SplitIntListTest, ReportsOffendingToken) {
  std::vector<int64_t> Out;
  std::string Bad;
  EXPECT_FALSE(splitIntList("1,x,3", Out, Bad));
  EXPECT_EQ(Bad, "x");

  Out.clear();
  EXPECT_FALSE(splitIntList("1,,2", Out, Bad));
  EXPECT_EQ(Bad, "");

  Out.clear();
  EXPECT_FALSE(splitIntList("", Out, Bad));

  Out.clear();
  EXPECT_FALSE(splitIntList("1,2,", Out, Bad));
}

/// Runs \p Parse with stderr captured; returns what it printed.
template <typename Fn> std::string stderrOf(Fn Parse) {
  testing::internal::CaptureStderr();
  Parse();
  return testing::internal::GetCapturedStderr();
}

TEST(ParseUnsignedFlagTest, AcceptsValuesInRange) {
  unsigned Jobs = 7;
  EXPECT_TRUE(parseUnsignedFlag("--jobs=0", "--jobs=", Jobs));
  EXPECT_EQ(Jobs, 0u);
  EXPECT_TRUE(parseUnsignedFlag("--jobs=4294967295", "--jobs=", Jobs));
  EXPECT_EQ(Jobs, 4294967295u);
  uint64_t Seed = 0;
  EXPECT_TRUE(
      parseUnsignedFlag("--seed=18446744073709551615", "--seed=", Seed));
  EXPECT_EQ(Seed, UINT64_MAX);
  unsigned Window = 0;
  EXPECT_TRUE(parseUnsignedFlag("--window=4096", "--window=", Window, 1, 4096));
  EXPECT_EQ(Window, 4096u);
}

TEST(ParseUnsignedFlagTest, RejectsSigns) {
  unsigned Jobs = 3;
  EXPECT_EQ(stderrOf([&] {
              EXPECT_FALSE(parseUnsignedFlag("--jobs=-1", "--jobs=", Jobs));
            }),
            "bad --jobs value in '--jobs=-1'\n");
  EXPECT_FALSE(parseUnsignedFlag("--jobs=+1", "--jobs=", Jobs));
  EXPECT_EQ(Jobs, 3u) << "a rejected value leaves the option alone";
}

TEST(ParseUnsignedFlagTest, RejectsValuesPastTheBound) {
  unsigned Jobs = 3;
  EXPECT_FALSE(parseUnsignedFlag("--jobs=4294967296", "--jobs=", Jobs));
  unsigned Window = 16;
  EXPECT_EQ(stderrOf([&] {
              EXPECT_FALSE(parseUnsignedFlag("--window=4097", "--window=",
                                             Window, 1, 4096));
            }),
            "bad --window value in '--window=4097'\n");
  uint64_t Millis = 0;
  EXPECT_FALSE(parseUnsignedFlag("--time-budget-ms=18446744073709552",
                                 "--time-budget-ms=", Millis, 0,
                                 UINT64_MAX / 1000));
  EXPECT_EQ(Jobs, 3u);
  EXPECT_EQ(Window, 16u);
}

TEST(ParseUnsignedFlagTest, RejectsZeroWhereForbidden) {
  size_t CacheBytes = 256;
  EXPECT_EQ(stderrOf([&] {
              EXPECT_FALSE(
                  parseUnsignedFlag("--cache=0", "--cache=", CacheBytes, 1));
            }),
            "bad --cache value in '--cache=0'\n");
  EXPECT_EQ(CacheBytes, 256u);
  EXPECT_TRUE(parseUnsignedFlag("--cache=1", "--cache=", CacheBytes, 1));
  EXPECT_EQ(CacheBytes, 1u);
}

TEST(ParseUnsignedFlagTest, RejectsAnEmptyOrPartialValue) {
  unsigned Runs = 5;
  EXPECT_FALSE(parseUnsignedFlag("--runs=", "--runs=", Runs));
  EXPECT_FALSE(parseUnsignedFlag("--runs=x", "--runs=", Runs));
  EXPECT_FALSE(parseUnsignedFlag("--runs=3x", "--runs=", Runs));
  EXPECT_EQ(Runs, 5u);
}

TEST(ParseGenerateFlagTest, CountAndOptionalSeed) {
  unsigned Count = 0;
  uint64_t Seed = 1;
  EXPECT_TRUE(parseGenerateFlag("--generate=16", Count, Seed));
  EXPECT_EQ(Count, 16u);
  EXPECT_EQ(Seed, 1u) << "no seed leaves the seed alone";
  EXPECT_TRUE(parseGenerateFlag("--generate=3:42", Count, Seed));
  EXPECT_EQ(Count, 3u);
  EXPECT_EQ(Seed, 42u);
}

TEST(ParseGenerateFlagTest, RejectsAnEmptySeedOrABadCount) {
  unsigned Count = 9;
  uint64_t Seed = 1;
  EXPECT_EQ(stderrOf([&] {
              EXPECT_FALSE(parseGenerateFlag("--generate=3:", Count, Seed));
            }),
            "bad --generate seed in '--generate=3:'\n");
  EXPECT_EQ(stderrOf([&] {
              EXPECT_FALSE(parseGenerateFlag("--generate=-3:5", Count, Seed));
            }),
            "bad --generate count in '--generate=-3:5'\n");
  EXPECT_FALSE(parseGenerateFlag("--generate=4294967296", Count, Seed));
  EXPECT_FALSE(parseGenerateFlag("--generate=", Count, Seed));
  EXPECT_EQ(Count, 9u);
  EXPECT_EQ(Seed, 1u);
}

TEST(ParseRunFlagTest, TakesTheNextArgumentUnlessItIsAFlag) {
  char Prog[] = "tool", Run[] = "--run", List[] = "1,-2,3", Neg[] = "-4",
       Quiet[] = "--quiet";
  {
    char *Argv[] = {Prog, Run, List, Quiet};
    int I = 1;
    std::vector<int64_t> Args;
    EXPECT_TRUE(parseRunFlag(4, Argv, I, Args));
    EXPECT_EQ(I, 2);
    EXPECT_EQ(Args, (std::vector<int64_t>{1, -2, 3}));
  }
  {
    char *Argv[] = {Prog, Run, Neg};
    int I = 1;
    std::vector<int64_t> Args;
    EXPECT_TRUE(parseRunFlag(3, Argv, I, Args));
    EXPECT_EQ(I, 2) << "a '-' before a digit is a negative value";
    EXPECT_EQ(Args, (std::vector<int64_t>{-4}));
  }
  {
    char *Argv[] = {Prog, Run, Quiet};
    int I = 1;
    std::vector<int64_t> Args;
    EXPECT_TRUE(parseRunFlag(3, Argv, I, Args));
    EXPECT_EQ(I, 1) << "the next flag is left for the caller";
    EXPECT_TRUE(Args.empty());
  }
  {
    char *Argv[] = {Prog, Run};
    int I = 1;
    std::vector<int64_t> Args;
    EXPECT_TRUE(parseRunFlag(2, Argv, I, Args));
    EXPECT_EQ(I, 1);
  }
}

TEST(ParseRunFlagTest, ReportsTheBadToken) {
  char Prog[] = "tool", Run[] = "--run", List[] = "1,x,3";
  char *Argv[] = {Prog, Run, List};
  int I = 1;
  std::vector<int64_t> Args;
  EXPECT_EQ(stderrOf([&] { EXPECT_FALSE(parseRunFlag(3, Argv, I, Args)); }),
            "bad --run argument 'x'\n");
}

} // namespace
