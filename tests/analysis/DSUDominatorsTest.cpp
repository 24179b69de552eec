//===- tests/analysis/DSUDominatorsTest.cpp -------------------------------===//
//
// The dominator builder's DSU path against its CHK reference: dominator
// trees are unique, so the two must agree on every idom and on the entire
// preorder/max-preorder decoration, and on every immediate postdominator
// through the reverse-CFG entry point, on every program we can throw at
// them — the canonical fixtures, every hand-written kernel, a generator
// sweep, several returns, and a pathologically deep CFG (which doubles as a
// recursion-safety check). The shared unreachable-block precondition and
// the "some block cannot reach a return" verdict are covered too.
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"

#include "../common/TestPrograms.h"
#include "analysis/CFGUtils.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

using namespace fcc;

namespace {

std::string nameOr(const BasicBlock *B, const char *Null) {
  return B ? B->name() : Null;
}

/// Computes \p F's postdominators with both algorithms and asserts the same
/// verdict and, when defined, the same immediate postdominators. Returns
/// whether they were defined (every block reaches a return).
bool expectIdenticalPostdominators(const Function &F,
                                   const std::string &Context) {
  std::vector<BasicBlock *> Chk, Dsu;
  bool ChkDefined = computePostDominators(F, Chk, DomAlgorithm::CHK);
  bool DsuDefined = computePostDominators(F, Dsu, DomAlgorithm::DSU);
  EXPECT_EQ(ChkDefined, DsuDefined) << Context;
  if (!ChkDefined || !DsuDefined)
    return false;
  EXPECT_EQ(Chk.size(), F.numBlocks()) << Context;
  EXPECT_EQ(Dsu.size(), F.numBlocks()) << Context;
  for (const auto &B : F.blocks())
    EXPECT_EQ(Chk[B->id()], Dsu[B->id()])
        << Context << ": ipdom(" << B->name() << "): CHK "
        << nameOr(Chk[B->id()], "<exit>") << " != DSU "
        << nameOr(Dsu[B->id()], "<exit>");
  return true;
}

/// Builds both trees over \p F and asserts they decorate identically.
void expectIdenticalTrees(const Function &F, const std::string &Context) {
  DominatorTree Chk(F, DomAlgorithm::CHK);
  DominatorTree Dsu(F, DomAlgorithm::DSU);
  for (const auto &B : F.blocks()) {
    EXPECT_EQ(Chk.idom(B.get()), Dsu.idom(B.get()))
        << Context << ": idom(" << B->name() << ")";
    EXPECT_EQ(Chk.preorder(B.get()), Dsu.preorder(B.get()))
        << Context << ": preorder(" << B->name() << ")";
    EXPECT_EQ(Chk.maxPreorder(B.get()), Dsu.maxPreorder(B.get()))
        << Context << ": maxPreorder(" << B->name() << ")";
    EXPECT_EQ(Chk.children(B.get()), Dsu.children(B.get()))
        << Context << ": children(" << B->name() << ")";
  }
  EXPECT_EQ(Chk.preorderBlocks(), Dsu.preorderBlocks()) << Context;
  EXPECT_EQ(Chk.reversePostorder(), Dsu.reversePostorder()) << Context;
  EXPECT_EQ(Chk.bytes(), Dsu.bytes()) << Context;
}

TEST(DSUDominatorsTest, AgreesOnCanonicalPrograms) {
  const char *Programs[] = {
      testprogs::StraightLine, testprogs::SumLoop,  testprogs::Diamond,
      testprogs::VirtualSwap,  testprogs::SwapLoop, testprogs::LostCopy,
      testprogs::ArraySum,     testprogs::NestedLoops};
  for (const char *Text : Programs) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    expectIdenticalTrees(F, F.name());
    EXPECT_TRUE(expectIdenticalPostdominators(F, F.name()));
    // Critical-edge splitting reshapes the CFG the way the pipeline does;
    // the algorithms must agree on that shape too.
    splitCriticalEdges(F);
    expectIdenticalTrees(F, F.name() + " (split)");
    EXPECT_TRUE(expectIdenticalPostdominators(F, F.name() + " (split)"));
  }
}

TEST(DSUDominatorsTest, AgreesOnEveryKernel) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    for (auto &F : M->functions()) {
      splitCriticalEdges(*F);
      expectIdenticalTrees(*F, Spec.Name);
      EXPECT_TRUE(expectIdenticalPostdominators(*F, Spec.Name));
    }
  }
}

TEST(DSUDominatorsTest, AgreesOnGeneratorSweep) {
  unsigned WithPostdominators = 0;
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Module M;
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = 40 + static_cast<unsigned>(Seed) * 17;
    Opts.NumVars = 11;
    Function *F = generateProgram(M, "g" + std::to_string(Seed), Opts);
    splitCriticalEdges(*F);
    expectIdenticalTrees(*F, F->name());
    WithPostdominators += expectIdenticalPostdominators(*F, F->name());
  }
  EXPECT_GT(WithPostdominators, 0u) << "the sweep must reach the reverse CFG";
}

TEST(DSUDominatorsTest, DeepChainIsIterativelySafe) {
  // A straight chain thousands of blocks deep: any recursive DFS, eval or
  // decoration pass would blow the stack here, and the idoms are exactly
  // the chain itself, so the answer is checkable in closed form.
  constexpr unsigned Depth = 20000;
  std::string Text = "func @deep(%a) {\nentry:\n  br b0\n";
  for (unsigned I = 0; I != Depth; ++I) {
    Text += "b" + std::to_string(I) + ":\n";
    Text += I + 1 == Depth ? std::string("  ret %a\n")
                           : "  br b" + std::to_string(I + 1) + "\n";
  }
  Text += "}\n";
  auto M = parseSingleFunctionOrDie(Text);
  Function &F = *M->functions()[0];
  DominatorTree Dsu(F, DomAlgorithm::DSU);
  const BasicBlock *Prev = F.entry();
  EXPECT_EQ(Dsu.idom(Prev), nullptr);
  for (unsigned I = 0; I != Depth; ++I) {
    const BasicBlock *B = F.findBlock("b" + std::to_string(I));
    ASSERT_NE(B, nullptr);
    EXPECT_EQ(Dsu.idom(B), Prev);
    EXPECT_EQ(Dsu.preorder(B), I + 1);
    EXPECT_EQ(Dsu.maxPreorder(B), Depth);
    Prev = B;
  }
  expectIdenticalTrees(F, "deep chain");

  // Reversed, the chain is just as deep: each block's immediate
  // postdominator is the next one, and the returning tail's is the exit.
  std::vector<BasicBlock *> IPdom;
  ASSERT_TRUE(computePostDominators(F, IPdom));
  EXPECT_EQ(IPdom[F.entry()->id()], F.findBlock("b0"));
  for (unsigned I = 0; I != Depth; ++I)
    EXPECT_EQ(IPdom[F.findBlock("b" + std::to_string(I))->id()],
              I + 1 == Depth ? nullptr
                             : F.findBlock("b" + std::to_string(I + 1)));
  EXPECT_TRUE(expectIdenticalPostdominators(F, "deep chain"));
}

TEST(DSUDominatorsTest, UnreachableBlocksThrowUnderBothAlgorithms) {
  // The checked precondition both implementations share (it replaced an
  // assert that NDEBUG compiled away): a block unreachable from entry
  // corrupts the RPO and every downstream pass, so construction must
  // refuse, in release builds too.
  auto M = parseSingleFunctionOrDie(R"(
func @unreach(%a) {
entry:
  ret %a
island:
  br island
}
)");
  Function &F = *M->functions()[0];
  EXPECT_THROW(DominatorTree(F, DomAlgorithm::CHK), std::invalid_argument);
  EXPECT_THROW(DominatorTree(F, DomAlgorithm::DSU), std::invalid_argument);
  try {
    DominatorTree DT(F, DomAlgorithm::DSU);
    FAIL() << "construction over an unreachable block must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("unreachable"), std::string::npos)
        << "diagnostic should name the problem: " << E.what();
  }
}

TEST(DSUDominatorsTest, IrreducibleCfgAgrees) {
  // Two loop headers jumping into each other — irreducible control flow,
  // where naive interval-style reasoning breaks; both algorithms must
  // still agree (the unique idom of both headers is the entry branch).
  auto M = parseSingleFunctionOrDie(R"(
func @irreducible(%c) {
entry:
  cbr %c, h1, h2
h1:
  %x = const 1
  cbr %x, h2, exit
h2:
  %y = const 2
  cbr %y, h1, exit
exit:
  ret %c
}
)");
  Function &F = *M->functions()[0];
  expectIdenticalTrees(F, "irreducible");
  DominatorTree Dsu(F, DomAlgorithm::DSU);
  EXPECT_EQ(Dsu.idom(F.findBlock("h1")), F.entry());
  EXPECT_EQ(Dsu.idom(F.findBlock("h2")), F.entry());
  EXPECT_EQ(Dsu.idom(F.findBlock("exit")), F.entry());
}

TEST(PostDominatorsTest, SeveralReturns) {
  // Two returns: blocks that can still reach either one are postdominated
  // only by the virtual exit; the rest by the join they must pass.
  auto M = parseSingleFunctionOrDie(R"(
func @multi(%a, %b) {
entry:
  %c = cmplt %a, %b
  cbr %c, left, right
left:
  %d = cmplt %a, 0
  cbr %d, early, join
right:
  br join
join:
  %s = add %a, %b
  ret %s
early:
  ret %a
}
)");
  Function &F = *M->functions()[0];
  std::vector<BasicBlock *> IPdom;
  ASSERT_TRUE(computePostDominators(F, IPdom));
  EXPECT_EQ(IPdom[F.entry()->id()], nullptr);
  EXPECT_EQ(IPdom[F.findBlock("left")->id()], nullptr);
  EXPECT_EQ(IPdom[F.findBlock("right")->id()], F.findBlock("join"));
  EXPECT_EQ(IPdom[F.findBlock("join")->id()], nullptr);
  EXPECT_EQ(IPdom[F.findBlock("early")->id()], nullptr);
  EXPECT_TRUE(expectIdenticalPostdominators(F, "several returns"));
  splitCriticalEdges(F);
  EXPECT_TRUE(expectIdenticalPostdominators(F, "several returns (split)"));
}

TEST(PostDominatorsTest, UndefinedWhenABlockCannotReachAReturn) {
  // The CFG ADCE must not perform branch surgery on: `spin` loops forever,
  // so the reverse search from the exit never reaches it, under either
  // algorithm.
  auto M = parseSingleFunctionOrDie(R"(
func @f(%x) {
entry:
  %c = cmplt %x, 0
  cbr %c, spin, out
spin:
  br spin
out:
  ret %x
}
)");
  Function &F = *M->functions()[0];
  std::vector<BasicBlock *> IPdom;
  EXPECT_FALSE(computePostDominators(F, IPdom, DomAlgorithm::DSU));
  EXPECT_FALSE(computePostDominators(F, IPdom, DomAlgorithm::CHK));
}

} // namespace
