//===- tests/coalesce/CoalescingCheckerTest.cpp ---------------------------===//

#include "coalesce/CoalescingChecker.h"

#include "../common/TestPrograms.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Variable.h"
#include "pipeline/Pipeline.h"
#include "regalloc/GraphColoringAllocator.h"
#include "ssa/SSABuilder.h"
#include <algorithm>
#include <gtest/gtest.h>

using namespace fcc;

namespace {

/// Location map merging an explicit list of groups; identity elsewhere.
struct MergeMap {
  std::vector<std::vector<const Variable *>> Groups;

  const Variable *operator()(const Variable *V) const {
    for (const auto &G : Groups)
      for (const Variable *Member : G)
        if (Member == V)
          return G.front();
    return V;
  }
};

struct SSAProgram {
  std::unique_ptr<Module> M;
  Function *F;
  std::unique_ptr<Liveness> LV;

  SSAProgram(const char *Text, bool Fold) {
    M = parseSingleFunctionOrDie(Text);
    F = M->functions()[0].get();
    splitCriticalEdges(*F);
    DominatorTree DT(*F);
    SSABuildOptions Opts;
    Opts.FoldCopies = Fold;
    buildSSA(*F, DT, Opts);
    LV = std::make_unique<Liveness>(*F);
  }

  Variable *var(const char *Name) {
    Variable *V = F->findVariable(Name);
    EXPECT_NE(V, nullptr) << Name;
    return V;
  }
};

TEST(CoalescingCheckerTest, IdentityAlwaysPasses) {
  for (const char *Text : {testprogs::SumLoop, testprogs::NestedLoops,
                           testprogs::VirtualSwap}) {
    SSAProgram P(Text, true);
    std::string Error;
    EXPECT_TRUE(checkCoalescing(
        *P.F, *P.LV, [](const Variable *V) { return V; }, Error))
        << Error;
  }
}

TEST(CoalescingCheckerTest, FlagsMergingTwoLiveValues) {
  SSAProgram P(testprogs::SumLoop, true);
  // n and the loop-carried i.* are simultaneously live in the header.
  MergeMap Map{{{P.var("n"), P.var("i.1")}}};
  std::string Error;
  EXPECT_FALSE(checkCoalescing(*P.F, *P.LV, std::cref(Map), Error));
  EXPECT_NE(Error.find("simultaneously live"), std::string::npos) << Error;
}

TEST(CoalescingCheckerTest, AcceptsMergingDisjointLifetimes) {
  SSAProgram P(testprogs::SumLoop, true);
  // The compare result c.1 dies at the header's branch; i.3 (the body
  // increment) is born after it.
  MergeMap Map{{{P.var("c.1"), P.var("i.3")}}};
  std::string Error;
  EXPECT_TRUE(checkCoalescing(*P.F, *P.LV, std::cref(Map), Error)) << Error;
}

TEST(CoalescingCheckerTest, CopySourceExemptAtTheCopy) {
  // Unfolded SSA keeps `m.1 = copy a`; merging m.1 with a overlaps only at
  // the copy itself, which Chaitin's refinement permits.
  SSAProgram P(testprogs::Diamond, /*Fold=*/false);
  MergeMap Map{{{P.var("a"), P.var("m.1")}}};
  std::string Error;
  EXPECT_TRUE(checkCoalescing(*P.F, *P.LV, std::cref(Map), Error)) << Error;
}

TEST(CoalescingCheckerTest, CopySourceStillLiveAfterTheCopyIsFine) {
  // After `b = copy a`, a and b hold the same value; reading both later is
  // harmless, so merging them is legal — exactly Chaitin's refinement.
  auto Text = R"(
func @f(%a) {
entry:
  %b = copy %a
  %c = add %b, %a
  ret %c
}
)";
  SSAProgram P(Text, /*Fold=*/false);
  MergeMap Map{{{P.var("a"), P.var("b.1")}}};
  std::string Error;
  EXPECT_TRUE(checkCoalescing(*P.F, *P.LV, std::cref(Map), Error)) << Error;
}

TEST(CoalescingCheckerTest, FlagsRedefinitionWhileTheSourceLives) {
  // b is redefined (b.2) while a is still live: merging a with b.2 would
  // clobber a, and no copy exemption applies to the add.
  auto Text = R"(
func @f(%a) {
entry:
  %b = copy %a
  %b = add %b, 1
  %c = add %b, %a
  ret %c
}
)";
  SSAProgram P(Text, /*Fold=*/false);
  MergeMap Map{{{P.var("a"), P.var("b.2")}}};
  std::string Error;
  EXPECT_FALSE(checkCoalescing(*P.F, *P.LV, std::cref(Map), Error))
      << "a outlives the redefinition of b";
}

TEST(CoalescingCheckerTest, FlagsParallelPhiDefsSharingALocation) {
  SSAProgram P(testprogs::SwapLoop, /*Fold=*/true);
  // The two swapped phis in the header define in parallel; merging them is
  // unsound no matter what.
  BasicBlock *Header = P.F->findBlock("header");
  ASSERT_GE(Header->phis().size(), 2u);
  const Variable *D0 = Header->phis()[0]->getDef();
  const Variable *D1 = Header->phis()[1]->getDef();
  MergeMap Map{{{D0, D1}}};
  std::string Error;
  EXPECT_FALSE(checkCoalescing(*P.F, *P.LV, std::cref(Map), Error));
}

TEST(CoalescingCheckerTest, ErrorNamesTheOffendingPair) {
  SSAProgram P(testprogs::SumLoop, true);
  MergeMap Map{{{P.var("n"), P.var("sum.1")}}};
  std::string Error;
  ASSERT_FALSE(checkCoalescing(*P.F, *P.LV, std::cref(Map), Error));
  EXPECT_NE(Error.find("n"), std::string::npos) << Error;
  EXPECT_NE(Error.find("sum.1"), std::string::npos) << Error;
}

/// The register assignment \p Registers uniform registers give \p F.
RegAllocResult allocate(const Function &F, unsigned Registers) {
  RegAllocOptions Opts;
  Opts.Machine = uniformMachine(Registers);
  return allocateRegisters(F, Opts);
}

TEST(CoalescingCheckerTest, RegisterFormAcceptsTheAllocatorsSpillingOutput) {
  // Two registers cannot hold the nest's live values: the spilled names
  // keep no register, each its own location.
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  runPipeline(F, PipelineOptions());
  RegAllocResult R = allocate(F, 2);
  ASSERT_FALSE(R.Spilled.empty());
  std::string Error;
  EXPECT_TRUE(checkRegisterAssignment(F, Liveness(F), R.RegisterOf, Error))
      << Error;
}

TEST(CoalescingCheckerTest, RegisterFormNamesBothHoldersOfACorruptedRegister) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%n) {
entry:
  %left = add %n, 1
  %right = add %n, 2
  %sum = add %left, %right
  ret %sum
}
)");
  Function &F = *M->functions()[0];
  RegAllocResult R = allocate(F, 8);
  Liveness LV(F);
  std::string Error;
  ASSERT_TRUE(checkRegisterAssignment(F, LV, R.RegisterOf, Error)) << Error;
  // left is live across right's definition.
  unsigned Left = F.findVariable("left")->id();
  unsigned Right = F.findVariable("right")->id();
  ASSERT_GE(R.RegisterOf[Left], 0);
  R.RegisterOf[Right] = R.RegisterOf[Left];
  EXPECT_FALSE(checkRegisterAssignment(F, LV, R.RegisterOf, Error));
  EXPECT_NE(Error.find("'left'"), std::string::npos) << Error;
  EXPECT_NE(Error.find("'right'"), std::string::npos) << Error;
}

TEST(CoalescingCheckerTest, RegisterFormLetsACopyShareItsSourcesRegister) {
  // a stays live past `b = copy a`, but both hold one value there.
  auto M = parseSingleFunctionOrDie(R"(
func @f(%a) {
entry:
  %b = copy %a
  %c = add %b, %a
  ret %c
}
)");
  Function &F = *M->functions()[0];
  std::vector<int> RegisterOf(F.numVariables(), -1);
  RegisterOf[F.findVariable("a")->id()] = 0;
  RegisterOf[F.findVariable("b")->id()] = 0;
  RegisterOf[F.findVariable("c")->id()] = 1;
  std::string Error;
  EXPECT_TRUE(checkRegisterAssignment(F, Liveness(F), RegisterOf, Error))
      << Error;
}

TEST(CoalescingCheckerTest, RegisterFormRunsOnPostDestructionCode) {
  // Standard destruction defines each phi's name once per incoming edge;
  // dense liveness serves such code.
  auto M = parseSingleFunctionOrDie(testprogs::SwapLoop);
  Function &F = *M->functions()[0];
  PipelineOptions Standard;
  Standard.Kind = PipelineKind::Standard;
  runPipeline(F, Standard);
  std::vector<unsigned> Defs(F.numVariables(), 0);
  for (const auto &B : F.blocks())
    for (const auto &I : B->insts())
      if (const Variable *Def = I->getDef())
        ++Defs[Def->id()];
  ASSERT_GT(*std::max_element(Defs.begin(), Defs.end()), 1u);

  Liveness LV(F, LivenessAlgorithm::Dense);
  std::string Error;
  EXPECT_TRUE(checkRegisterAssignment(F, LV, allocate(F, 8).RegisterOf, Error))
      << Error;
  EXPECT_FALSE(checkRegisterAssignment(
      F, LV, std::vector<int>(F.numVariables(), 0), Error));
}

} // namespace
