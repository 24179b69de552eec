//===- tests/ir/FunctionTest.cpp ------------------------------------------===//

#include "ir/Function.h"

#include <gtest/gtest.h>

#if defined(__SANITIZE_ADDRESS__)
#define FCC_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FCC_TEST_ASAN 1
#endif
#endif
#ifdef FCC_TEST_ASAN
#include <sanitizer/asan_interface.h>
#endif

using namespace fcc;

TEST(FunctionTest, VariableIdsAreDense) {
  Function F("f");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  EXPECT_EQ(A->id(), 0u);
  EXPECT_EQ(B->id(), 1u);
  EXPECT_EQ(F.numVariables(), 2u);
  EXPECT_EQ(F.variable(0), A);
  EXPECT_EQ(F.variable(1), B);
}

TEST(FunctionTest, OriginChainTracksSSAVersions) {
  Function F("f");
  Variable *X = F.makeVariable("x");
  Variable *X1 = F.makeVariable("x.1", X);
  Variable *X2 = F.makeVariable("x.2", X1);
  EXPECT_EQ(X->origin(), nullptr);
  EXPECT_EQ(X1->origin(), X);
  EXPECT_EQ(X2->rootOrigin(), X);
  EXPECT_EQ(X->rootOrigin(), X);
}

TEST(FunctionTest, FirstBlockIsEntry) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("other");
  EXPECT_EQ(F.entry(), E);
  EXPECT_EQ(F.numBlocks(), 2u);
  EXPECT_EQ(F.block(1), B);
}

TEST(FunctionTest, FindByName) {
  Function F("f");
  F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("loop");
  Variable *V = F.makeVariable("i");
  EXPECT_EQ(F.findBlock("loop"), B);
  EXPECT_EQ(F.findBlock("nope"), nullptr);
  EXPECT_EQ(F.findVariable("i"), V);
  EXPECT_EQ(F.findVariable("nope"), nullptr);
}

TEST(FunctionTest, ParamsAreTracked) {
  Function F("f");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  F.addParam(A);
  EXPECT_TRUE(F.isParam(A));
  EXPECT_FALSE(F.isParam(B));
  EXPECT_EQ(F.params().size(), 1u);
}

TEST(FunctionTest, RecomputePredsFollowsTerminators) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *L = F.makeBlock("left");
  BasicBlock *R = F.makeBlock("right");
  BasicBlock *J = F.makeBlock("join");
  Variable *C = F.makeVariable("c");
  E->append(F.makeInstruction(Opcode::Const, C, {Operand::imm(1)}));
  E->append(F.makeInstruction(Opcode::CondBr, nullptr, {Operand::var(C)}, {L,
                              R}));
  L->append(F.makeInstruction(Opcode::Br, nullptr, {}, {J}));
  R->append(F.makeInstruction(Opcode::Br, nullptr, {}, {J}));
  J->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::imm(0)}));
  F.recomputePreds();
  EXPECT_EQ(J->getNumPreds(), 2u);
  EXPECT_EQ(J->predIndex(L), 0u);
  EXPECT_EQ(J->predIndex(R), 1u);
  EXPECT_TRUE(E->preds().empty());
}

TEST(FunctionTest, CountsCoverPhisAndCopies) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  E->append(F.makeInstruction(Opcode::Const, A, {Operand::imm(3)}));
  E->append(F.makeInstruction(Opcode::Copy, B, {Operand::var(A)}));
  E->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(B)}));
  EXPECT_EQ(F.instructionCount(), 3u);
  EXPECT_EQ(F.staticCopyCount(), 1u);
  EXPECT_EQ(F.phiCount(), 0u);
}

TEST(FunctionTest, BlockInsertionHelpers) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  E->append(F.makeInstruction(Opcode::Const, A, {Operand::imm(1)}));
  E->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(A)}));
  E->insertBeforeTerminator(F.makeInstruction(Opcode::Copy, B,
                                              {Operand::var(A)}));
  ASSERT_EQ(E->insts().size(), 3u);
  EXPECT_TRUE(E->insts()[1]->isCopy());
  EXPECT_TRUE(E->insts()[2]->isTerminator());

  Variable *C = F.makeVariable("c");
  E->insertAt(0, F.makeInstruction(Opcode::Const, C, {Operand::imm(9)}));
  EXPECT_EQ(E->insts()[0]->getDef(), C);
}

TEST(FunctionTest, TakeInstHandsTheInstructionBackForReinsertion) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  Variable *X = F.makeVariable("x");
  Instruction *Def = E->append(F.makeInstruction(Opcode::Const, X,
                                                 {Operand::imm(0)}));
  E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {B}));
  B->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(X)}));
  F.recomputePreds();
  Instruction *Taken = E->takeInst(Def);
  EXPECT_EQ(Taken, Def);
  EXPECT_EQ(Taken->getParent(), nullptr);
  EXPECT_EQ(E->size(), 1u);
  B->insertBeforeTerminator(Taken);
  EXPECT_EQ(B->insts()[0], Def);
  EXPECT_EQ(Def->getParent(), B);
  EXPECT_EQ(Def->getOperand(0).getImm(), 0);
}

TEST(FunctionTest, EraseInstsIfCompactsTheBodyInOnePass) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {B}));
  F.recomputePreds();
  Variable *P = F.makeVariable("p");
  B->addPhi(F.makeInstruction(Opcode::Phi, P, {Operand::imm(0)}));
  std::vector<Variable *> Vars;
  for (unsigned I = 0; I != 6; ++I) {
    Vars.push_back(F.makeVariable("v" + std::to_string(I)));
    B->append(F.makeInstruction(I % 2 ? Opcode::Copy : Opcode::Const,
                                Vars.back(),
                                {I % 2 ? Operand::var(P) : Operand::imm(I)}));
  }
  B->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(P)}));

  EXPECT_EQ(B->eraseInstsIf([](const Instruction &I) { return I.isCopy(); }),
            3u);
  ASSERT_EQ(B->size(), 4u);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_EQ(B->insts()[I]->getDef(), Vars[2 * I]) << "survivor " << I;
    EXPECT_EQ(B->insts()[I]->getParent(), B);
  }
  EXPECT_TRUE(B->hasTerminator());
  EXPECT_EQ(B->terminator()->getParent(), B);
  EXPECT_EQ(B->phis().size(), 1u) << "the phi list is a separate list";

  EXPECT_EQ(B->eraseInstsIf([](const Instruction &) { return false; }), 0u);
  EXPECT_EQ(B->size(), 4u);
}

TEST(FunctionTest, InsertAroundSplicesBeforeAndAfterInOnePass) {
  Function F("f");
  BasicBlock *B = F.makeBlock("entry");
  std::vector<Variable *> Vars;
  for (unsigned I = 0; I != 3; ++I) {
    Vars.push_back(F.makeVariable("v" + std::to_string(I)));
    B->append(F.makeInstruction(Opcode::Const, Vars.back(), {Operand::imm(I)}));
  }
  B->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(Vars[0])}));

  // Wrap v1's def in a reload and a spill, and reload before the return.
  B->insertAround([&](Instruction &I, BasicBlock::InstList &Before,
                      BasicBlock::InstList &After) {
    if (I.getDef() != Vars[1] && !I.isTerminator())
      return;
    Before.push_back(F.makeInstruction(Opcode::Reload, F.makeVariable("r"),
                                       {Operand::imm(0)}));
    if (!I.isTerminator())
      After.push_back(F.makeInstruction(
          Opcode::Spill, nullptr, {Operand::var(Vars[1]), Operand::imm(0)}));
  });
  const Opcode Want[] = {Opcode::Const, Opcode::Reload, Opcode::Const,
                         Opcode::Spill, Opcode::Const,  Opcode::Reload,
                         Opcode::Ret};
  ASSERT_EQ(B->size(), 7u);
  for (unsigned I = 0; I != 7; ++I) {
    EXPECT_EQ(B->insts()[I]->opcode(), Want[I]) << "position " << I;
    EXPECT_EQ(B->insts()[I]->getParent(), B) << "position " << I;
  }
  EXPECT_EQ(B->insts()[2]->getDef(), Vars[1]);
  EXPECT_TRUE(B->hasTerminator());
}

TEST(FunctionTest, ErasePhisIfLeavesTheBodyAlone) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {B}));
  F.recomputePreds();
  std::vector<Variable *> Vars;
  for (unsigned I = 0; I != 5; ++I) {
    Vars.push_back(F.makeVariable("x" + std::to_string(I)));
    B->addPhi(F.makeInstruction(Opcode::Phi, Vars.back(), {Operand::imm(I)}));
  }
  B->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(Vars[0])}));

  EXPECT_EQ(B->erasePhisIf([&](const Instruction &Phi) {
              return Phi.getDef() == Vars[1] || Phi.getDef() == Vars[4];
            }),
            2u);
  ASSERT_EQ(B->phis().size(), 3u);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_EQ(B->phis()[I]->getDef(), Vars[I == 0 ? 0 : I + 1])
        << "survivor " << I;
    EXPECT_EQ(B->phis()[I]->getParent(), B);
  }
  ASSERT_EQ(B->size(), 1u) << "the body is a separate list";
  EXPECT_TRUE(B->hasTerminator());
}

// Erased instructions stay in the function's pool, so only poisoning keeps
// a stale pointer to one visible to AddressSanitizer. Every erase path is
// covered: the batch erases, eraseInst, and deleting unreachable blocks.
TEST(FunctionTest, ErasedInstructionsArePoisonedUnderAddressSanitizer) {
#ifndef FCC_TEST_ASAN
  GTEST_SKIP() << "needs an AddressSanitizer build";
#else
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *J = F.makeBlock("join");
  BasicBlock *Dead = F.makeBlock("dead");
  Variable *X = F.makeVariable("x");
  Variable *Y = F.makeVariable("y");
  Variable *Z = F.makeVariable("z");
  Instruction *Kept =
      E->append(F.makeInstruction(Opcode::Const, X, {Operand::imm(2)}));
  Instruction *Copy =
      E->append(F.makeInstruction(Opcode::Copy, Y, {Operand::var(X)}));
  Instruction *Konst =
      E->append(F.makeInstruction(Opcode::Const, Z, {Operand::imm(1)}));
  E->append(F.makeInstruction(Opcode::Br, nullptr, {}, {J}));
  Instruction *DeadDef =
      Dead->append(F.makeInstruction(Opcode::Const, Y, {Operand::imm(3)}));
  Instruction *DeadBr =
      Dead->append(F.makeInstruction(Opcode::Br, nullptr, {}, {J}));
  F.recomputePreds();
  Instruction *Phi = J->addPhi(F.makeInstruction(
      Opcode::Phi, Y, {Operand::var(X), Operand::var(Y)}));
  Instruction *Ret =
      J->append(F.makeInstruction(Opcode::Ret, nullptr, {Operand::var(Y)}));
  const Operand *CopyOps = &Copy->getOperand(0);
  const Operand *PhiOps = &Phi->getOperand(0);

  EXPECT_EQ(E->eraseInstsIf([&](const Instruction &I) { return &I == Copy; }),
            1u);
  E->eraseInst(Konst);
  EXPECT_EQ(F.removeUnreachableBlocks(), 1u);
  EXPECT_EQ(J->erasePhisIf([](const Instruction &) { return true; }), 1u);

  for (const void *Erased : {static_cast<const void *>(Copy),
                             static_cast<const void *>(Konst),
                             static_cast<const void *>(DeadDef),
                             static_cast<const void *>(DeadBr),
                             static_cast<const void *>(Phi),
                             static_cast<const void *>(CopyOps),
                             static_cast<const void *>(PhiOps),
                             // The slot the phi gave up with the dead block.
                             static_cast<const void *>(PhiOps + 1)})
    EXPECT_TRUE(__asan_address_is_poisoned(Erased)) << Erased;
  EXPECT_FALSE(__asan_address_is_poisoned(Kept));
  // The pool placed the return right behind the phi's two operand slots,
  // so poisoning past the phi's record would show here.
  ASSERT_EQ(static_cast<const void *>(Ret),
            static_cast<const void *>(PhiOps + 2));
  EXPECT_FALSE(__asan_address_is_poisoned(Ret));
  EXPECT_EQ(Kept->getOperand(0).getImm(), 2);
  EXPECT_EQ(E->size(), 2u);
#endif
}
