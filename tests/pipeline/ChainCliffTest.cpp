//===- tests/pipeline/ChainCliffTest.cpp ----------------------------------===//
//
// The chain and wide-join legs of the scaling-cliff gate. A diamond chain's
// names grow with its blocks, so liveness stored as blocks x names makes its
// compile quadratic: doubling the chain grew PeakBytes 3.5-3.9x and time
// 2.8-3.1x. Compiled through the service at 12 500 and 25 000 blocks under
// New and Standard, doubling may now grow PeakBytes and the best-of-five
// compile time by at most 2.5x, and a 50 000-block New compile stays under
// 16 MB. Timing-sensitive, so ctest runs it alone, and the two sizes
// alternate so both see the same machine. Sanitizer runtimes (shadow memory,
// quarantine, fake stacks) do not scale time with the work, so there only
// the byte bounds apply. A wide join's frontier walks climbed every arm's
// whole ladder (PeakBytes 4x per doubling); it has a byte leg only.
//
//===----------------------------------------------------------------------===//

#include "../common/ShapeSources.h"
#include "service/CompilationService.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>

using namespace fcc;
using testprogs::diamondChainSource;
using testprogs::wideJoinSource;

namespace {

#ifdef FCC_SANITIZED
constexpr bool TimesScale = false;
#else
constexpr bool TimesScale = true;
#endif

struct ShapeCompile {
  double BestSeconds = std::numeric_limits<double>::infinity();
  size_t PeakBytes = 0;
};

/// Compiles \p Text once more, keeping the best time in \p Into.
void compileShape(const CompilationService &Service, const std::string &Text,
                  ShapeCompile &Into) {
  auto Start = std::chrono::steady_clock::now();
  UnitReport U =
      Service.compileOne(WorkUnit::fromSource("shape", Text), 0, nullptr);
  std::chrono::duration<double> Took = std::chrono::steady_clock::now() - Start;
  ASSERT_TRUE(U.ok()) << U.Error;
  ASSERT_EQ(U.Functions.size(), 1u);
  Into.BestSeconds = std::min(Into.BestSeconds, Took.count());
  Into.PeakBytes = U.Functions[0].Compile.PeakBytes;
}

TEST(ChainCliffTest, DoublingTheChainAtMostTwoAndAHalfTimesTheCost) {
  const std::string SmallText = diamondChainSource(12500);
  const std::string LargeText = diamondChainSource(25000);
  for (PipelineKind Kind : {PipelineKind::New, PipelineKind::Standard}) {
    ServiceOptions Opts;
    Opts.Pipeline = Kind;
    CompilationService Service(Opts);
    ShapeCompile Small, Large;
    for (unsigned Run = 0; Run != 5; ++Run) {
      compileShape(Service, SmallText, Small);
      compileShape(Service, LargeText, Large);
    }
    ASSERT_GT(Small.PeakBytes, 0u) << pipelineName(Kind);
    EXPECT_LE(double(Large.PeakBytes), 2.5 * double(Small.PeakBytes))
        << pipelineName(Kind) << ": PeakBytes " << Small.PeakBytes << " -> "
        << Large.PeakBytes;
    if (TimesScale)
      EXPECT_LE(Large.BestSeconds, 2.5 * Small.BestSeconds)
          << pipelineName(Kind) << ": best of five " << Small.BestSeconds
          << " s -> " << Large.BestSeconds << " s";
  }
}

TEST(WideJoinCliffTest, DoublingTheArmsAtMostTwoAndAHalfTimesThePeakBytes) {
  ServiceOptions Opts;
  Opts.Pipeline = PipelineKind::Standard;
  CompilationService Service(Opts);
  ShapeCompile Small, Large;
  compileShape(Service, wideJoinSource(4000), Small);
  compileShape(Service, wideJoinSource(8000), Large);
  ASSERT_GT(Small.PeakBytes, 0u);
  EXPECT_LE(double(Large.PeakBytes), 2.5 * double(Small.PeakBytes))
      << "PeakBytes " << Small.PeakBytes << " -> " << Large.PeakBytes;
}

TEST(ChainCliffTest, FiftyThousandBlocksUnderSixteenMegabytes) {
  ServiceOptions Opts;
  CompilationService Service(Opts);
  ShapeCompile C;
  compileShape(Service, diamondChainSource(50000), C);
  EXPECT_GT(C.PeakBytes, 0u);
  EXPECT_LT(C.PeakBytes, size_t(16) << 20);
}

} // namespace
