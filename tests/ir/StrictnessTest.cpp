//===- tests/ir/StrictnessTest.cpp ----------------------------------------===//

#include "ir/Verifier.h"

#include "../common/TestPrograms.h"
#include "analysis/DominatorTree.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "ssa/SSABuilder.h"
#include "support/SplitMix64.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <algorithm>

using namespace fcc;

namespace {

TEST(StrictnessTest, CanonicalProgramsAreStrict) {
  for (const char *Text :
       {testprogs::StraightLine, testprogs::SumLoop, testprogs::Diamond,
        testprogs::VirtualSwap, testprogs::SwapLoop, testprogs::LostCopy,
        testprogs::ArraySum, testprogs::NestedLoops}) {
    auto M = parseSingleFunctionOrDie(Text);
    EXPECT_TRUE(isStrict(*M->functions()[0]))
        << M->functions()[0]->name() << " should be strict";
  }
}

TEST(StrictnessTest, ParametersCountAsDefined) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%a) {
entry:
  ret %a
}
)");
  EXPECT_TRUE(isStrict(*M->functions()[0]));
}

TEST(StrictnessTest, DetectsUseWithNoDefinition) {
  auto M = parseSingleFunctionOrDie(R"(
func @f() {
entry:
  ret %ghost
}
)");
  Function &F = *M->functions()[0];
  EXPECT_FALSE(isStrict(F));
  auto Bad = findNonStrictVariables(F);
  ASSERT_EQ(Bad.size(), 1u);
  EXPECT_EQ(Bad[0]->name(), "ghost");
}

TEST(StrictnessTest, DetectsOnePathMissingDefinition) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%c) {
entry:
  cbr %c, defside, skipside
defside:
  %x = const 1
  br join
skipside:
  br join
join:
  ret %x
}
)");
  Function &F = *M->functions()[0];
  EXPECT_FALSE(isStrict(F));
  auto Bad = findNonStrictVariables(F);
  ASSERT_EQ(Bad.size(), 1u);
  EXPECT_EQ(Bad[0]->name(), "x");
}

TEST(StrictnessTest, PhiOperandUndefinedAlongOneEdgeIsNonStrict) {
  // The phi reads %x on the edge from b, where no definition reached it; the
  // phi's own result is defined.
  const char *Text = R"(
func @f(%c) {
entry:
  cbr %c, a, b
a:
  %x = const 1
  br join
b:
  br join
join:
  %y = phi [%x, a], [%x, b]
  ret %y
}
)";
  auto M = parseSingleFunctionOrDie(Text);
  Function &F = *M->functions()[0];
  auto Bad = findNonStrictVariables(F);
  ASSERT_EQ(Bad.size(), 1u);
  EXPECT_EQ(Bad[0]->name(), "x");
  EXPECT_EQ(enforceStrictness(F), 1u);
  EXPECT_TRUE(isStrict(F));

  // A definition along every edge makes the same shape strict.
  std::string Covered = Text;
  Covered.replace(Covered.find("[%x, b]"), 7, "[%c, b]");
  EXPECT_TRUE(isStrict(*parseSingleFunctionOrDie(Covered)->functions()[0]));
}

TEST(StrictnessTest, UseBeforeDefInSameBlockIsNonStrict) {
  auto M = parseSingleFunctionOrDie(R"(
func @f() {
entry:
  %y = add %x, 1
  %x = const 2
  ret %y
}
)");
  EXPECT_FALSE(isStrict(*M->functions()[0]));
}

TEST(StrictnessTest, DefThenUseInSameBlockIsStrict) {
  auto M = parseSingleFunctionOrDie(R"(
func @f() {
entry:
  %x = const 2
  %y = add %x, 1
  ret %y
}
)");
  EXPECT_TRUE(isStrict(*M->functions()[0]));
}

TEST(StrictnessTest, LoopCarriedDefinitionIsStrict) {
  // %j is defined before the loop and redefined inside; the use after the
  // loop always sees a definition.
  auto M = parseSingleFunctionOrDie(testprogs::LostCopy);
  EXPECT_TRUE(isStrict(*M->functions()[0]));
}

TEST(StrictnessTest, EnforceStrictnessInsertsEntryInits) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%c) {
entry:
  cbr %c, defside, skipside
defside:
  %x = const 1
  br join
skipside:
  br join
join:
  ret %x
}
)");
  Function &F = *M->functions()[0];
  unsigned Inserted = enforceStrictness(F);
  EXPECT_EQ(Inserted, 1u);
  EXPECT_TRUE(isStrict(F));
  const Instruction &Init = *F.entry()->insts()[0];
  EXPECT_EQ(Init.opcode(), Opcode::Const);
  EXPECT_EQ(Init.getDef()->name(), "x");
  std::string Error;
  EXPECT_TRUE(verifyFunction(F, Error)) << Error;
}

TEST(StrictnessTest, EnforceStrictnessIsANoopOnStrictCode) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  EXPECT_EQ(enforceStrictness(*M->functions()[0]), 0u);
}

TEST(StrictnessTest, EnforceOnlyTouchesLiveInOfEntry) {
  // %dead is assigned but never used on the undefined path; only %x needs an
  // initializer. (The paper: restrict initializations to live-in of b0.)
  auto M = parseSingleFunctionOrDie(R"(
func @f(%c) {
entry:
  cbr %c, a, b
a:
  %x = const 1
  %dead = const 2
  br join
b:
  br join
join:
  ret %x
}
)");
  Function &F = *M->functions()[0];
  EXPECT_EQ(enforceStrictness(F), 1u);
}

/// Definition 2.1 read literally, independently of any data flow: for each
/// variable, walk every path from the entry one instruction at a time and
/// report the variable when a path reaches a use before a definition. A phi
/// operand is used on its incoming edge, before the block's phis define.
/// Each block is entered at most once per variable: a walk entering a block
/// with the variable undefined continues the same way every time.
std::vector<const Variable *> usedBeforeDefinedOnSomePath(const Function &F) {
  std::vector<const Variable *> Result;
  for (const auto &Var : F.variables()) {
    const Variable *V = Var;
    if (F.isParam(V))
      continue;
    std::vector<bool> Entered(F.numBlocks(), false);
    std::vector<const BasicBlock *> Work{F.entry()};
    Entered[F.entry()->id()] = true;
    bool Undefined = false;
    while (!Work.empty() && !Undefined) {
      const BasicBlock *B = Work.back();
      Work.pop_back();
      bool Stop =
          std::any_of(B->phis().begin(), B->phis().end(),
                      [&](const auto &Phi) { return Phi->getDef() == V; });
      for (auto It = B->insts().begin(); !Stop && It != B->insts().end();
           ++It) {
        Undefined = (*It)->uses(V);
        Stop = Undefined || (*It)->getDef() == V;
      }
      if (Stop)
        continue;
      for (BasicBlock *S : B->succs()) {
        unsigned Slot = S->predIndex(B);
        for (const auto &Phi : S->phis())
          Undefined |= Phi->getOperand(Slot).isVar() &&
                       Phi->getOperand(Slot).getVar() == V;
        if (!Entered[S->id()]) {
          Entered[S->id()] = true;
          Work.push_back(S);
        }
      }
    }
    if (Undefined)
      Result.push_back(V);
  }
  return Result;
}

/// Deletes up to \p Count randomly chosen definitions from \p F's bodies.
void deleteDefinitions(Function &F, unsigned Count, SplitMix64 &Rng) {
  for (unsigned K = 0; K != Count; ++K) {
    std::vector<Instruction *> Defs;
    for (const auto &B : F.blocks())
      for (const auto &I : B->insts())
        if (I->getDef())
          Defs.push_back(I);
    if (Defs.empty())
      return;
    Instruction *Victim = Defs[Rng.nextBelow(Defs.size())];
    Victim->getParent()->eraseInst(Victim);
  }
}

class StrictnessPropertyTest : public ::testing::TestWithParam<unsigned> {};

// Generator programs are strict; deleting definitions, before or after SSA
// construction (so phi operands lose theirs too), makes some of them
// non-strict. The liveness query must name exactly the variables the path
// search finds, in id order.
TEST_P(StrictnessPropertyTest, NonStrictVariablesAreThoseAPathUsesUndefined) {
  const unsigned Seed = GetParam();
  SplitMix64 Rng(Seed);
  unsigned NonStrict = 0;
  for (unsigned Deleted = 0; Deleted <= 3; ++Deleted) {
    for (bool InSSA : {false, true}) {
      Module M;
      Function &F =
          *generateProgram(M, "g", fuzzerOptionsForRun(Seed, Deleted));
      if (InSSA) {
        DominatorTree DT(F);
        buildSSA(F, DT, {SSAFlavor::Pruned, /*FoldCopies=*/true});
      }
      deleteDefinitions(F, Deleted, Rng);
      std::vector<const Variable *> Want = usedBeforeDefinedOnSomePath(F);
      EXPECT_EQ(findNonStrictVariables(F), Want)
          << "seed " << Seed << ", " << Deleted << " deleted"
          << (InSSA ? " after SSA construction" : "");
      if (Deleted == 0) {
        EXPECT_TRUE(Want.empty()) << "generator output must be strict";
      }
      NonStrict += !Want.empty();
    }
  }
  EXPECT_GT(NonStrict, 0u) << "no deletion broke strictness";
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrictnessPropertyTest,
                         ::testing::Range(1u, 31u));

} // namespace
