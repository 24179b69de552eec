//===- tests/analysis/DominanceFrontierTest.cpp ---------------------------===//

#include "analysis/DominanceFrontier.h"

#include "../common/TestPrograms.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

using namespace fcc;

namespace {

bool contains(const std::vector<BasicBlock *> &DF, const BasicBlock *B) {
  return std::find(DF.begin(), DF.end(), B) != DF.end();
}

TEST(DominanceFrontierTest, StraightLineHasEmptyFrontiers) {
  auto M = parseSingleFunctionOrDie(testprogs::StraightLine);
  Function &F = *M->functions()[0];
  DominatorTree DT(F);
  DominanceFrontier DF(DT);
  EXPECT_TRUE(DF.frontier(F.entry()).empty());
}

TEST(DominanceFrontierTest, DiamondArmsMeetAtJoin) {
  auto M = parseSingleFunctionOrDie(testprogs::Diamond);
  Function &F = *M->functions()[0];
  DominatorTree DT(F);
  DominanceFrontier DF(DT);
  BasicBlock *Left = F.findBlock("left");
  BasicBlock *Right = F.findBlock("right");
  BasicBlock *Join = F.findBlock("join");
  EXPECT_TRUE(contains(DF.frontier(Left), Join));
  EXPECT_TRUE(contains(DF.frontier(Right), Join));
  EXPECT_TRUE(DF.frontier(F.entry()).empty())
      << "entry dominates the join, so join is not in its frontier";
  EXPECT_TRUE(DF.frontier(Join).empty());
}

TEST(DominanceFrontierTest, LoopHeaderIsInItsOwnFrontier) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  DominatorTree DT(F);
  DominanceFrontier DF(DT);
  BasicBlock *Header = F.findBlock("header");
  BasicBlock *Body = F.findBlock("body");
  EXPECT_TRUE(contains(DF.frontier(Body), Header));
  EXPECT_TRUE(contains(DF.frontier(Header), Header))
      << "the header's frontier contains itself via the back edge";
}

TEST(DominanceFrontierTest, FrontiersAreSortedAndUnique) {
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  DominatorTree DT(F);
  DominanceFrontier DF(DT);
  for (const auto &B : F.blocks()) {
    const auto &Frontier = DF.frontier(B.get());
    for (size_t I = 1; I < Frontier.size(); ++I)
      EXPECT_LT(Frontier[I - 1]->id(), Frontier[I]->id());
  }
}

/// The programs the definition checks below run on: the nested loops,
/// every kernel and a sweep of generator programs.
std::vector<std::unique_ptr<Module>> definitionCorpus() {
  std::vector<std::unique_ptr<Module>> Corpus;
  Corpus.push_back(parseSingleFunctionOrDie(testprogs::NestedLoops));
  for (const RoutineSpec &Spec : kernelSuite())
    Corpus.push_back(Spec.materialize());
  for (unsigned Run = 0; Run != 60; ++Run) {
    Corpus.push_back(std::make_unique<Module>());
    generateProgram(*Corpus.back(), "g" + std::to_string(Run),
                    fuzzerOptionsForRun(29, Run));
  }
  return Corpus;
}

/// Expects each frontier of \p DF to be exactly the blocks Y with
/// InFrontier(X, Y), in block-id order.
void expectFrontiers(
    const Function &F, const DominanceFrontier &DF,
    const std::function<bool(const BasicBlock *, const BasicBlock *)>
        &InFrontier) {
  for (const auto &X : F.blocks()) {
    std::vector<BasicBlock *> Expected;
    for (const auto &Y : F.blocks())
      if (InFrontier(X.get(), Y.get()))
        Expected.push_back(Y.get());
    EXPECT_EQ(DF.frontier(X.get()), Expected)
        << F.name() << ": frontier of " << X->name();
  }
}

TEST(DominanceFrontierTest, MatchesDefinitionOnAllPairs) {
  // DF(X) = { Y : X dominates a pred of Y, X does not strictly dominate Y }.
  for (const auto &M : definitionCorpus())
    for (const auto &F : M->functions()) {
      DominatorTree DT(*F);
      DominanceFrontier DF(DT);
      expectFrontiers(*F, DF, [&](const BasicBlock *X, const BasicBlock *Y) {
        bool DominatesAPred = false;
        for (BasicBlock *P : Y->preds())
          DominatesAPred |= DT.dominates(X, P);
        return DominatesAPred && !DT.strictlyDominates(X, Y);
      });
    }
}

TEST(DominanceFrontierTest, ReverseFrontiersAreControlDependence) {
  // Y is control dependent on X (Ferrante, Ottenstein and Warren) when X
  // has a successor S that Y postdominates or is, and Y does not strictly
  // postdominate X. Postdominance comes from paths here, not from IPdom: Z
  // is postdominated by Y when no return is reachable from Z avoiding Y.
  unsigned Checked = 0;
  for (const auto &M : definitionCorpus())
    for (const auto &F : M->functions()) {
      std::vector<BasicBlock *> IPdom;
      if (!computePostDominators(*F, IPdom))
        continue;
      ++Checked;
      DominanceFrontier RDF(*F, IPdom);
      std::vector<std::vector<bool>> EscapesAvoiding(F->numBlocks());
      for (const auto &Y : F->blocks()) {
        std::vector<bool> &Escapes = EscapesAvoiding[Y->id()];
        Escapes.assign(F->numBlocks(), false);
        std::vector<const BasicBlock *> Work;
        for (const auto &B : F->blocks())
          if (B != Y && B->terminator()->opcode() == Opcode::Ret) {
            Escapes[B->id()] = true;
            Work.push_back(B.get());
          }
        while (!Work.empty()) {
          const BasicBlock *B = Work.back();
          Work.pop_back();
          for (const BasicBlock *P : B->preds())
            if (P != Y.get() && !Escapes[P->id()]) {
              Escapes[P->id()] = true;
              Work.push_back(P);
            }
        }
      }
      auto Postdominates = [&](const BasicBlock *Y, const BasicBlock *Z) {
        return !EscapesAvoiding[Y->id()][Z->id()];
      };
      expectFrontiers(*F, RDF, [&](const BasicBlock *Y, const BasicBlock *X) {
        bool PostdominatesASucc = false;
        for (const BasicBlock *S : X->terminator()->successors())
          PostdominatesASucc |= Postdominates(Y, S);
        return PostdominatesASucc && (X == Y || !Postdominates(Y, X));
      });
    }
  EXPECT_GT(Checked, 20u) << "the corpus must reach the reverse CFG";
}

} // namespace
