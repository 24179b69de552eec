//===- tests/ir/InstructionTest.cpp ---------------------------------------===//

#include "ir/Instruction.h"

#include "ir/Function.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

class InstructionTest : public ::testing::Test {
protected:
  Function F{"t"};
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  Variable *C = F.makeVariable("c");
};

TEST_F(InstructionTest, AddHasDefAndOperands) {
  Instruction &I = *F.makeInstruction(Opcode::Add, C, {Operand::var(A),
                                      Operand::var(B)});
  EXPECT_EQ(I.getDef(), C);
  EXPECT_EQ(I.getNumOperands(), 2u);
  EXPECT_TRUE(I.uses(A));
  EXPECT_TRUE(I.uses(B));
  EXPECT_FALSE(I.uses(C));
  EXPECT_FALSE(I.isTerminator());
  EXPECT_FALSE(I.isPhi());
  EXPECT_FALSE(I.isCopy());
}

TEST_F(InstructionTest, CopyIsACopy) {
  Instruction &I = *F.makeInstruction(Opcode::Copy, B, {Operand::var(A)});
  EXPECT_TRUE(I.isCopy());
  EXPECT_TRUE(I.uses(A));
}

TEST_F(InstructionTest, ImmediateOperandsAreNotUses) {
  Instruction &I = *F.makeInstruction(Opcode::Add, C, {Operand::var(A),
                                      Operand::imm(5)});
  EXPECT_TRUE(I.uses(A));
  unsigned VarUses = 0;
  I.forEachUsedVar([&](Variable *) { ++VarUses; });
  EXPECT_EQ(VarUses, 1u);
  EXPECT_EQ(I.getOperand(1).getImm(), 5);
}

TEST_F(InstructionTest, ForEachUseCanRetarget) {
  Instruction &I = *F.makeInstruction(Opcode::Add, C, {Operand::var(A),
                                      Operand::var(A)});
  I.forEachUse([&](Operand &O) { O.setVar(B); });
  EXPECT_FALSE(I.uses(A));
  EXPECT_TRUE(I.uses(B));
}

TEST_F(InstructionTest, TerminatorSuccessors) {
  BasicBlock *B1 = F.makeBlock("b1");
  BasicBlock *B2 = F.makeBlock("b2");
  Instruction &I = *F.makeInstruction(Opcode::CondBr, nullptr,
                                      {Operand::var(A)}, {B1, B2});
  EXPECT_TRUE(I.isTerminator());
  EXPECT_EQ(I.getNumSuccessors(), 2u);
  EXPECT_EQ(I.getSuccessor(0), B1);
  I.setSuccessor(0, B2);
  EXPECT_EQ(I.getSuccessor(0), B2);
}

TEST_F(InstructionTest, PhiOperandEditing) {
  Instruction &I = *F.makeBlock("j")->addPhi(F.makeInstruction(
      Opcode::Phi, C, {Operand::var(A), Operand::var(B), Operand::var(A)}));
  EXPECT_TRUE(I.isPhi());
  EXPECT_EQ(I.getNumOperands(), 3u);
  I.removePhiOperand(1);
  EXPECT_EQ(I.getNumOperands(), 2u);
  EXPECT_EQ(I.getOperand(1).getVar(), A);
}

TEST_F(InstructionTest, StoreHasNoDef) {
  Instruction &I = *F.makeInstruction(Opcode::Store, nullptr, {Operand::imm(0),
                                      Operand::var(A)});
  EXPECT_EQ(I.getDef(), nullptr);
  EXPECT_TRUE(I.uses(A));
}

} // namespace
