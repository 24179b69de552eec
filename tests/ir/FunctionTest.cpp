//===- tests/ir/FunctionTest.cpp ------------------------------------------===//

#include "ir/Function.h"

#include <gtest/gtest.h>

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
  E->append(std::make_unique<Instruction>(Opcode::Const, C,
                                          std::vector<Operand>{Operand::imm(1)}));
  E->append(std::make_unique<Instruction>(
      Opcode::CondBr, nullptr, std::vector<Operand>{Operand::var(C)},
      std::vector<BasicBlock *>{L, R}));
  L->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{J}));
  R->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{J}));
  J->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Operand>{Operand::imm(0)}));
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
  E->append(std::make_unique<Instruction>(Opcode::Const, A,
                                          std::vector<Operand>{Operand::imm(3)}));
  E->append(std::make_unique<Instruction>(Opcode::Copy, B,
                                          std::vector<Operand>{Operand::var(A)}));
  E->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Operand>{Operand::var(B)}));
  EXPECT_EQ(F.instructionCount(), 3u);
  EXPECT_EQ(F.staticCopyCount(), 1u);
  EXPECT_EQ(F.phiCount(), 0u);
}

TEST(FunctionTest, BlockInsertionHelpers) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  Variable *A = F.makeVariable("a");
  Variable *B = F.makeVariable("b");
  E->append(std::make_unique<Instruction>(Opcode::Const, A,
                                          std::vector<Operand>{Operand::imm(1)}));
  E->append(std::make_unique<Instruction>(Opcode::Ret, nullptr,
                                          std::vector<Operand>{Operand::var(A)}));
  E->insertBeforeTerminator(std::make_unique<Instruction>(
      Opcode::Copy, B, std::vector<Operand>{Operand::var(A)}));
  ASSERT_EQ(E->insts().size(), 3u);
  EXPECT_TRUE(E->insts()[1]->isCopy());
  EXPECT_TRUE(E->insts()[2]->isTerminator());

  Variable *C = F.makeVariable("c");
  E->insertAt(0, std::make_unique<Instruction>(
                     Opcode::Const, C, std::vector<Operand>{Operand::imm(9)}));
  EXPECT_EQ(E->insts()[0]->getDef(), C);
}

TEST(FunctionTest, TakePhisTransfersOwnership) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  Variable *X = F.makeVariable("x");
  E->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{B}));
  F.recomputePreds();
  B->addPhi(std::make_unique<Instruction>(Opcode::Phi, X,
                                          std::vector<Operand>{Operand::imm(0)}));
  auto Phis = B->takePhis();
  EXPECT_EQ(Phis.size(), 1u);
  EXPECT_TRUE(B->phis().empty());
}

TEST(FunctionTest, EraseInstsIfCompactsTheBodyInOnePass) {
  Function F("f");
  BasicBlock *E = F.makeBlock("entry");
  BasicBlock *B = F.makeBlock("b");
  E->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{B}));
  F.recomputePreds();
  Variable *P = F.makeVariable("p");
  B->addPhi(std::make_unique<Instruction>(
      Opcode::Phi, P, std::vector<Operand>{Operand::imm(0)}));
  std::vector<Variable *> Vars;
  for (unsigned I = 0; I != 6; ++I) {
    Vars.push_back(F.makeVariable("v" + std::to_string(I)));
    B->append(std::make_unique<Instruction>(
        I % 2 ? Opcode::Copy : Opcode::Const, Vars.back(),
        std::vector<Operand>{I % 2 ? Operand::var(P) : Operand::imm(I)}));
  }
  B->append(std::make_unique<Instruction>(
      Opcode::Ret, nullptr, std::vector<Operand>{Operand::var(P)}));

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
    B->append(std::make_unique<Instruction>(
        Opcode::Const, Vars.back(), std::vector<Operand>{Operand::imm(I)}));
  }
  B->append(std::make_unique<Instruction>(
      Opcode::Ret, nullptr, std::vector<Operand>{Operand::var(Vars[0])}));

  // Wrap v1's def in a reload and a spill, and reload before the return.
  B->insertAround([&](Instruction &I, BasicBlock::InstList &Before,
                      BasicBlock::InstList &After) {
    if (I.getDef() != Vars[1] && !I.isTerminator())
      return;
    Before.push_back(std::make_unique<Instruction>(
        Opcode::Reload, F.makeVariable("r"),
        std::vector<Operand>{Operand::imm(0)}));
    if (!I.isTerminator())
      After.push_back(std::make_unique<Instruction>(
          Opcode::Spill, nullptr,
          std::vector<Operand>{Operand::var(Vars[1]), Operand::imm(0)}));
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
  E->append(std::make_unique<Instruction>(Opcode::Br, nullptr,
                                          std::vector<Operand>{},
                                          std::vector<BasicBlock *>{B}));
  F.recomputePreds();
  std::vector<Variable *> Vars;
  for (unsigned I = 0; I != 5; ++I) {
    Vars.push_back(F.makeVariable("x" + std::to_string(I)));
    B->addPhi(std::make_unique<Instruction>(
        Opcode::Phi, Vars.back(), std::vector<Operand>{Operand::imm(I)}));
  }
  B->append(std::make_unique<Instruction>(
      Opcode::Ret, nullptr, std::vector<Operand>{Operand::var(Vars[0])}));

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
