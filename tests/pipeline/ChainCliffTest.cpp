//===- tests/pipeline/ChainCliffTest.cpp ----------------------------------===//
//
// The scaling-cliff gate: a shape compiled through the service at two
// sizes, the larger twice the smaller, may grow PeakBytes and the
// best-of-five compile time by at most 2.5x. Timing-sensitive, so ctest
// runs it alone, and the two sizes alternate so both see the same machine.
// Sanitizer runtimes (shadow memory, quarantine, fake stacks) do not scale
// time with the work, so there only the byte bounds apply.
//
// - A diamond chain's names grow with its blocks, so liveness stored as
//   blocks x names made its compile quadratic (PeakBytes 3.5-3.9x and time
//   2.8-3.1x per doubling). New and Standard, 12 500 -> 25 000 blocks; a
//   50 000-block New compile also stays under 16 MB.
// - A wide join's frontier walks climbed every arm's whole ladder, and SSA
//   renaming and the verifier searched the join's predecessor list once per
//   arm. Standard and New, 16 000 -> 32 000 arms.
// - SCCP kept a blocks x blocks table of executable edges, and removing
//   unreachable blocks erased them from the block list one at a time. New
//   with sccp,adce,pre, 12 500 -> 25 000 blocks of the diamond chain.
// - New's eager set checks scanned both whole sets at every union and
//   copied both member lists into a fresh array, so a set that grows one
//   member at a time cost O(k^2) time and bytes: the wide join's one wide
//   phi, a one-armed if-chain and a loop nest all grew 4x per doubling.
//   New, 8 000 -> 16 000 ifs and 8 000 -> 16 000 nested loops.
// - The SSA verifier, which runs after every pass whenever
//   PassManagerOptions::Verify is on, found a same-block definition by
//   scanning the block from its top for every use, so on one long block
//   it grew 4x per doubling. verifySSAForm alone, 20 000 -> 40 000
//   statements of a fat block in SSA form with its copies kept.
//
//===----------------------------------------------------------------------===//

#include "../common/ShapeSources.h"
#include "analysis/DominatorTree.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "opt/PassManager.h"
#include "service/CompilationService.h"
#include "ssa/SSABuilder.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <vector>

using namespace fcc;
using namespace fcc::testprogs;

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

/// Compiles \p Shape at \p Size and 2 x \p Size under \p Kind, after
/// \p Passes, five times each with the sizes alternating, and expects
/// PeakBytes and the best time to grow at most 2.5x.
void expectDoublingAtMostTwoAndAHalfTimes(
    PipelineKind Kind, std::string (*Shape)(unsigned), unsigned Size,
    const std::vector<PassKind> &Passes = {}) {
  const std::string SmallText = Shape(Size), LargeText = Shape(2 * Size);
  ServiceOptions Opts;
  Opts.Pipeline = Kind;
  Opts.Passes = Passes;
  CompilationService Service(Opts);
  ShapeCompile Small, Large;
  for (unsigned Run = 0; Run != 5; ++Run) {
    compileShape(Service, SmallText, Small);
    compileShape(Service, LargeText, Large);
  }
  std::string Leg = std::string(pipelineName(Kind)) +
                    (Passes.empty() ? "" : " + " + passSequenceName(Passes)) +
                    " at " + std::to_string(Size) + " -> " +
                    std::to_string(2 * Size);
  ASSERT_GT(Small.PeakBytes, 0u) << Leg;
  EXPECT_LE(double(Large.PeakBytes), 2.5 * double(Small.PeakBytes))
      << Leg << ": PeakBytes " << Small.PeakBytes << " -> "
      << Large.PeakBytes;
  if (TimesScale) {
    EXPECT_LE(Large.BestSeconds, 2.5 * Small.BestSeconds)
        << Leg << ": best of five " << Small.BestSeconds << " s -> "
        << Large.BestSeconds << " s";
  }
}

std::string diamondChain(unsigned Blocks) {
  return diamondChainSource(Blocks);
}

TEST(ChainCliffTest, DoublingTheChainAtMostTwoAndAHalfTimesTheCost) {
  for (PipelineKind Kind : {PipelineKind::New, PipelineKind::Standard})
    expectDoublingAtMostTwoAndAHalfTimes(Kind, diamondChain, 12500);
}

TEST(ChainCliffTest, DoublingTheOptimizedChainAtMostTwoAndAHalfTimesTheCost) {
  std::vector<PassKind> Passes;
  ASSERT_TRUE(parsePassSequence("sccp,adce,pre", Passes));
  expectDoublingAtMostTwoAndAHalfTimes(PipelineKind::New, diamondChain, 12500,
                                       Passes);
}

TEST(WideJoinCliffTest, DoublingTheArmsAtMostTwoAndAHalfTimesTheCost) {
  for (PipelineKind Kind : {PipelineKind::Standard, PipelineKind::New})
    expectDoublingAtMostTwoAndAHalfTimes(Kind, wideJoinSource, 16000);
}

TEST(IfChainCliffTest, DoublingTheIfsAtMostTwoAndAHalfTimesTheCost) {
  expectDoublingAtMostTwoAndAHalfTimes(PipelineKind::New, ifChainSource,
                                       8000);
}

TEST(LoopNestCliffTest, DoublingTheDepthAtMostTwoAndAHalfTimesTheCost) {
  expectDoublingAtMostTwoAndAHalfTimes(PipelineKind::New, loopNestSource,
                                       8000);
}

TEST(VerifierCliffTest, DoublingTheBlockAtMostTwoAndAHalfTimesTheCost) {
  struct Shape {
    std::unique_ptr<Module> M;
    std::optional<DominatorTree> DT;
    double BestSeconds = std::numeric_limits<double>::infinity();
  } Small, Large;
  for (auto [Into, Statements] : {std::pair{&Small, 20000u},
                                  std::pair{&Large, 40000u}}) {
    std::string Error;
    Into->M = parseModule(fatBlockSource(Statements, 5), Error);
    ASSERT_TRUE(Into->M) << Error;
    Function &F = *Into->M->functions()[0];
    Into->DT.emplace(F);
    SSABuildOptions Build;
    Build.FoldCopies = false;
    buildSSA(F, *Into->DT, Build);
  }
  for (unsigned Run = 0; Run != 5; ++Run)
    for (Shape *S : {&Small, &Large}) {
      std::string Error;
      auto Start = std::chrono::steady_clock::now();
      bool Valid = verifySSAForm(*S->M->functions()[0], *S->DT, Error);
      std::chrono::duration<double> Took =
          std::chrono::steady_clock::now() - Start;
      ASSERT_TRUE(Valid) << Error;
      S->BestSeconds = std::min(S->BestSeconds, Took.count());
    }
  if (TimesScale) {
    EXPECT_LE(Large.BestSeconds, 2.5 * Small.BestSeconds)
        << "best of five " << Small.BestSeconds << " s -> "
        << Large.BestSeconds << " s";
  }
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
