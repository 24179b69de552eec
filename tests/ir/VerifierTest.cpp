//===- tests/ir/VerifierTest.cpp ------------------------------------------===//

#include "ir/Verifier.h"

#include "../common/TestPrograms.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

class VerifierGoodTest : public ::testing::TestWithParam<const char *> {};

TEST_P(VerifierGoodTest, WellFormedProgramsVerify) {
  auto M = parseSingleFunctionOrDie(GetParam());
  std::string Error;
  EXPECT_TRUE(verifyFunction(*M->functions()[0], Error)) << Error;
}

INSTANTIATE_TEST_SUITE_P(Programs, VerifierGoodTest,
                         ::testing::Values(testprogs::StraightLine,
                                           testprogs::SumLoop,
                                           testprogs::Diamond,
                                           testprogs::VirtualSwap,
                                           testprogs::SwapLoop,
                                           testprogs::LostCopy,
                                           testprogs::ArraySum,
                                           testprogs::NestedLoops));

TEST(VerifierTest, DetectsMissingTerminator) {
  Function F("f");
  F.makeBlock("entry");
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("terminator"), std::string::npos) << Error;
}

TEST(VerifierTest, DetectsEntryWithPredecessors) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {E}));
  F.recomputePreds();
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("entry"), std::string::npos) << Error;
}

TEST(VerifierTest, DetectsUnreachableBlock) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *Dead = F.makeBlock("dead");
  E->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::imm(0)}));
  Dead->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::imm(1)}));
  F.recomputePreds();
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("unreachable"), std::string::npos) << Error;
}

TEST(VerifierTest, DetectsStalePredecessorList) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {B}));
  B->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::imm(0)}));
  // recomputePreds() deliberately not called: B's pred list is empty.
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("predecessor"), std::string::npos) << Error;
}

TEST(VerifierTest, DetectsForeignVariable) {
  Function F("f");
  Function Other("g");
  Variable *Foreign = Other.makeVariable("x");
  BasicBlock *E = F.makeBlock("entry");
  E->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(Foreign)}));
  F.recomputePreds();
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("foreign"), std::string::npos) << Error;
}

TEST(VerifierTest, DetectsPhiOperandCountMismatch) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  Variable *X = F.makeVariable("x");
  E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {B}));
  B->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::imm(0)}));
  F.recomputePreds();
  // One pred, but two phi operands.
  B->addPhi(F.makeInstruction(Opcode::Phi, X, {Operand::imm(1),
                              Operand::imm(2)}));
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("phi operand count"), std::string::npos) << Error;
}

TEST(VerifierTest, DetectsEmptyFunction) {
  Function F("f");
  std::string Error;
  EXPECT_FALSE(verifyFunction(F, Error));
  EXPECT_NE(Error.find("no blocks"), std::string::npos) << Error;
}

TEST(VerifierTest, CompileInputContractNamesTheBrokenRule) {
  std::string Error;
  auto Good = parseSingleFunctionOrDie(testprogs::SumLoop);
  EXPECT_EQ(checkCompileInput(*Good->functions()[0], Error), InputFault::None)
      << Error;

  Function Empty("e");
  EXPECT_EQ(checkCompileInput(Empty, Error), InputFault::Invalid);
  EXPECT_EQ(Error, "@e: function 'e' has no blocks");

  auto Joined = parseSingleFunctionOrDie(R"(
func @j(%c) {
entry:
  cbr %c, a, join
a:
  br join
join:
  %y = phi [%c, entry], [%c, a]
  ret %y
}
)");
  EXPECT_EQ(checkCompileInput(*Joined->functions()[0], Error),
            InputFault::Invalid);
  EXPECT_EQ(Error, "@j: input has phis; compiles start from phi-free code");

  auto Maybe = parseSingleFunctionOrDie(R"(
func @m(%c) {
entry:
  cbr %c, a, join
a:
  %x = const 1
  br join
join:
  ret %x
}
)");
  EXPECT_EQ(checkCompileInput(*Maybe->functions()[0], Error),
            InputFault::NotStrict);
  EXPECT_EQ(Error, "@m is not strict (a use may precede every definition)");
}

} // namespace
