//===- tests/analysis/LivenessLayoutTest.cpp ------------------------------===//
//
// The sparse solver's two storage layouts against the dense fixed point,
// over SSA code: 300 fuzzer programs (as built, and after sccp,adce,pre),
// every kernel, and diamond chains and generator programs big enough to
// cross Liveness::DenseLayoutMaxBytes. For every block and every name,
// isLiveIn, isLiveOut and the enumerated sets must agree with
// LivenessAlgorithm::Dense, and each input must take the layout its size
// calls for — so the span layout really runs. The span layout's bytes()
// must follow its own size formula.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "../common/ShapeSources.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "opt/PassManager.h"
#include "ssa/SSABuilder.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

using namespace fcc;
using testprogs::diamondChainSource;

namespace {

/// Takes \p F to pruned, copy-folded SSA the way the pipeline does, then
/// optionally through sccp,adce,pre.
void toSSA(Function &F, bool Optimize = false) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
  if (!Optimize)
    return;
  runPassSequence(F, {PassKind::Sccp, PassKind::Adce, PassKind::Pre});
  splitCriticalEdges(F);
}

size_t blockMajorBytes(const Function &F) {
  return 2 * size_t(F.numBlocks()) * ((size_t(F.numVariables()) + 63) / 64) *
         sizeof(uint64_t);
}

/// Checks the sparse solve of \p F against the dense one on every block and
/// name; returns whether the sparse solve took the span layout.
bool expectSameLiveness(const Function &F, const std::string &Context) {
  Liveness Dense(F, LivenessAlgorithm::Dense);
  Liveness Sparse(F, LivenessAlgorithm::Sparse);
  EXPECT_FALSE(Dense.hasSpanLayout()) << Context;
  EXPECT_EQ(Sparse.hasSpanLayout(),
            blockMajorBytes(F) > Liveness::DenseLayoutMaxBytes)
      << Context;
  for (const auto &B : F.blocks()) {
    IndexSet In = Dense.liveIn(B.get()), Out = Dense.liveOut(B.get());
    EXPECT_EQ(Sparse.liveIn(B.get()), In)
        << Context << ": live-in(" << B->name() << ")";
    EXPECT_EQ(Sparse.liveOut(B.get()), Out)
        << Context << ": live-out(" << B->name() << ")";
    // One expectation per block keeps a big input's check cheap.
    unsigned Mismatches = 0;
    std::string First;
    for (unsigned Id = 0; Id != F.numVariables(); ++Id) {
      const Variable *V = F.variable(Id);
      bool WantIn = In.test(Id), WantOut = Out.test(Id);
      if (Dense.isLiveIn(B.get(), V) == WantIn &&
          Sparse.isLiveIn(B.get(), V) == WantIn &&
          Dense.isLiveOut(B.get(), V) == WantOut &&
          Sparse.isLiveOut(B.get(), V) == WantOut)
        continue;
      if (Mismatches++ == 0)
        First = V->name();
    }
    EXPECT_EQ(Mismatches, 0u) << Context << ": queries in " << B->name()
                              << " disagree first on %" << First;
  }
  return Sparse.hasSpanLayout();
}

TEST(LivenessLayoutTest, FuzzerProgramsAgreeAsBuiltAndOptimized) {
  for (bool Optimize : {false, true})
    for (unsigned I = 0; I != 300; ++I) {
      Module M;
      Function *F = generateProgram(M, "g" + std::to_string(I),
                                    fuzzerOptionsForRun(29, I));
      toSSA(*F, Optimize);
      EXPECT_FALSE(expectSameLiveness(
          *F, F->name() + (Optimize ? " after sccp,adce,pre" : "")));
    }
}

TEST(LivenessLayoutTest, EveryKernelAgrees) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    for (auto &F : M->functions()) {
      toSSA(*F);
      EXPECT_FALSE(expectSameLiveness(*F, Spec.Name));
    }
  }
}

TEST(LivenessLayoutTest, ProgramsAboveTheCutOverTakeTheSpanLayoutAndAgree) {
  {
    auto M = parseSingleFunctionOrDie(diamondChainSource(4000));
    Function &F = *M->functions()[0];
    toSSA(F);
    EXPECT_TRUE(expectSameLiveness(F, "diamond chain 4000"));
  }
  {
    auto M = parseSingleFunctionOrDie(diamondChainSource(6000, 9));
    Function &F = *M->functions()[0];
    toSSA(F, /*Optimize=*/true);
    EXPECT_TRUE(expectSameLiveness(F, "diamond chain 6000 after opt"));
  }
  // The repository benchmark's generator shape, one size above its largest
  // (which stays below the cut-over).
  GeneratorOptions G;
  G.Seed = 5;
  G.SizeBudget = 1000;
  G.NumVars = 24 + G.SizeBudget / 8;
  G.NumParams = 3;
  G.MaxLoopDepth = 3;
  G.LoopTripMax = 3;
  G.CopyPercent = 20;
  G.MemPercent = 10;
  G.RunLength = 6;
  Module M;
  Function *F = generateProgram(M, "gen1000", G);
  toSSA(*F);
  EXPECT_TRUE(expectSameLiveness(*F, "gen1000"));
}

/// Each block's number in the reverse postorder of a depth-first search
/// that takes successors in terminator order.
std::vector<unsigned> rpoNumbers(const Function &F) {
  std::vector<unsigned> Number(F.numBlocks(), 0);
  std::vector<bool> Seen(F.numBlocks(), false);
  unsigned Finished = 0;
  auto Visit = [&](auto &Self, const BasicBlock *B) -> void {
    Seen[B->id()] = true;
    for (const BasicBlock *S : B->terminator()->successors())
      if (!Seen[S->id()])
        Self(Self, S);
    Number[B->id()] = Finished++;
  };
  Visit(Visit, F.entry());
  for (unsigned &N : Number)
    N = Finished - 1 - N;
  return Number;
}

TEST(LivenessLayoutTest, SpanLayoutBytesFollowTheLiveRanges) {
  // Per name a 16-byte span header, per block its 4-byte number, and per
  // name live anywhere two words (live-in, live-out) per 64 blocks of the
  // reverse-postorder span its live blocks cover.
  auto M = parseSingleFunctionOrDie(diamondChainSource(4000));
  Function &F = *M->functions()[0];
  toSSA(F);
  Liveness Dense(F, LivenessAlgorithm::Dense);
  Liveness Sparse(F, LivenessAlgorithm::Sparse);
  ASSERT_TRUE(Sparse.hasSpanLayout());
  std::vector<unsigned> Rpo = rpoNumbers(F);
  std::vector<unsigned> First(F.numVariables(), ~0u), Last(F.numVariables(), 0);
  for (const auto &B : F.blocks()) {
    auto Cover = [&](unsigned Id) {
      First[Id] = std::min(First[Id], Rpo[B->id()]);
      Last[Id] = std::max(Last[Id], Rpo[B->id()]);
    };
    Dense.liveIn(B.get()).forEach(Cover);
    Dense.liveOut(B.get()).forEach(Cover);
  }
  size_t Words = 0;
  for (unsigned Id = 0; Id != F.numVariables(); ++Id)
    if (First[Id] != ~0u)
      Words += 2 * ((Last[Id] - First[Id] + 1 + 63) / 64);
  EXPECT_EQ(Sparse.bytes(), 16 * size_t(F.numVariables()) +
                                4 * size_t(F.numBlocks()) + 8 * Words);
  EXPECT_LT(Sparse.bytes(), Dense.bytes() / 10);

  // A name made after the solve is live nowhere, as on the dense layout.
  Variable *Late = F.makeVariable("late");
  for (const auto &B : F.blocks()) {
    EXPECT_FALSE(Sparse.isLiveIn(B.get(), Late));
    EXPECT_FALSE(Sparse.isLiveOut(B.get(), Late));
  }
}

} // namespace
