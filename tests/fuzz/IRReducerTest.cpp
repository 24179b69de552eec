//===- tests/fuzz/IRReducerTest.cpp ---------------------------------------===//

#include "fuzz/IRReducer.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

/// Candidate validity shared by all predicates here: parses and meets the
/// compile-input contract — exactly what the oracle enforces for the fuzzer.
bool isValid(const std::string &Text) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Text, Error);
  if (!M || M->functions().empty())
    return false;
  for (const auto &F : M->functions())
    if (checkCompileInput(*F, Error) != InputFault::None)
      return false;
  return true;
}

bool containsOpcode(const std::string &Text, Opcode Op) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Text, Error);
  if (!M)
    return false;
  for (const auto &F : M->functions())
    for (const auto &B : F->blocks())
      for (const auto &I : B->insts())
        if (I->opcode() == Op)
          return true;
  return false;
}

unsigned totalInsts(const std::string &Text) {
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Text, Error);
  unsigned N = 0;
  for (const auto &F : M->functions())
    N += F->instructionCount();
  return N;
}

TEST(IRReducerTest, ShrinksGeneratedProgramToPredicateCore) {
  GeneratorOptions G;
  G.Seed = 17;
  G.SizeBudget = 20;
  G.CopyPercent = 30;
  Module M;
  generateProgram(M, "big", G);
  std::string Text = printModule(M);

  // Generated programs always contain an Add (the result accumulator).
  ReducerPredicate P = [](const std::string &T) {
    return isValid(T) && containsOpcode(T, Opcode::Add);
  };
  ASSERT_TRUE(P(Text));

  ReductionStats Stats;
  std::string Reduced = reduceIr(Text, P, Stats);
  EXPECT_TRUE(P(Reduced));
  EXPECT_GT(Stats.CandidatesTried, 0u);
  EXPECT_LE(Stats.InstsAfter, Stats.InstsBefore);
  EXPECT_LE(Stats.BlocksAfter, Stats.BlocksBefore);
  // The predicate needs one add plus a ret; everything structural should
  // melt away (strictness can pin a few const initializers).
  EXPECT_LT(Stats.InstsAfter, Stats.InstsBefore);
  EXPECT_EQ(totalInsts(Reduced), Stats.InstsAfter);
}

TEST(IRReducerTest, CollapsesBranchesAwayFromPredicate) {
  // The mul lives in the then-arm; the else-arm and the condition are
  // noise the reducer should strip by rewiring the conditional branch.
  const char *Text = "func @f(%a) {\n"
                     "entry:\n  %c = cmplt %a, 5\n  cbr %c, t, e\n"
                     "t:\n  %m = mul %a, %a\n  br join\n"
                     "e:\n  %s = add %a, 1\n  br join\n"
                     "join:\n  ret %a\n}";
  ReducerPredicate P = [](const std::string &T) {
    return isValid(T) && containsOpcode(T, Opcode::Mul);
  };
  ASSERT_TRUE(P(Text));

  ReductionStats Stats;
  std::string Reduced = reduceIr(Text, P, Stats);
  EXPECT_TRUE(P(Reduced));
  EXPECT_LT(Stats.BlocksAfter, Stats.BlocksBefore);
  EXPECT_FALSE(containsOpcode(Reduced, Opcode::CondBr));
  EXPECT_FALSE(containsOpcode(Reduced, Opcode::CmpLt));
}

TEST(IRReducerTest, LowersImmediatesTowardZero) {
  const char *Text = "func @f() {\nentry:\n  %a = const 1000\n"
                     "  %b = add %a, 640\n  ret %b\n}";
  // Validity only: every halving is accepted, so immediates converge to
  // the fixpoint of v/2 (0 or 1).
  ReducerPredicate P = [](const std::string &T) { return isValid(T); };
  ReductionStats Stats;
  std::string Reduced = reduceIr(Text, P, Stats);
  EXPECT_TRUE(P(Reduced));
  EXPECT_EQ(Reduced.find("1000"), std::string::npos);
  EXPECT_EQ(Reduced.find("640"), std::string::npos);
}

TEST(IRReducerTest, DeterministicAndBudgetBounded) {
  GeneratorOptions G;
  G.Seed = 23;
  G.SizeBudget = 12;
  Module M;
  generateProgram(M, "det", G);
  std::string Text = printModule(M);
  ReducerPredicate P = [](const std::string &T) { return isValid(T); };

  ReducerOptions Opts;
  Opts.MaxCandidates = 40;
  ReductionStats A, B;
  std::string RA = reduceIr(Text, P, A, Opts);
  std::string RB = reduceIr(Text, P, B, Opts);
  EXPECT_EQ(RA, RB);
  EXPECT_EQ(A.CandidatesTried, B.CandidatesTried);
  EXPECT_LE(A.CandidatesTried, Opts.MaxCandidates);
}

} // namespace
