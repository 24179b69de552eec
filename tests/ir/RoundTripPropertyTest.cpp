//===- tests/ir/RoundTripPropertyTest.cpp ---------------------------------===//
//
// Printer/parser round trips over generated programs, through every stage
// of the pipeline (pre-SSA, SSA with phis, post-coalescing): the printed
// text must re-parse to a program with identical text and identical
// behavior.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "coalesce/FastCoalescer.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ssa/SSABuilder.h"
#include "workload/ProgramGenerator.h"

#include "../common/ShapeSources.h"
#include "../common/TestUtils.h"
#include <gtest/gtest.h>

using namespace fcc;

namespace {

void expectRoundTrip(const Function &F, const std::vector<int64_t> &Args) {
  // CFG edits (edge splitting) can leave predecessor lists in a different
  // order than a fresh parse computes, which permutes how phi operands
  // print; that is semantically irrelevant. The property is therefore:
  // parsing preserves behavior, and after one parse the textual form is a
  // fixed point of print-then-parse.
  std::string Text = printFunction(F);
  std::string Error;
  std::unique_ptr<Module> M = parseModule(Text, Error);
  ASSERT_NE(M, nullptr) << Error << "\n" << Text;
  Function &Reparsed = *M->functions()[0];
  testutils::expectSameBehavior(F, Reparsed, Args);

  std::string Normalized = printFunction(Reparsed);
  std::unique_ptr<Module> M2 = parseModule(Normalized, Error);
  ASSERT_NE(M2, nullptr) << Error << "\n" << Normalized;
  EXPECT_EQ(printFunction(*M2->functions()[0]), Normalized);
  testutils::expectSameBehavior(F, *M2->functions()[0], Args);
}

class RoundTripPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RoundTripPropertyTest, EveryStagePrintsReparseably) {
  GeneratorOptions Opts;
  Opts.Seed = GetParam();
  Opts.SizeBudget = 8 + GetParam() % 20;
  Opts.NumParams = 1 + GetParam() % 3;
  std::vector<int64_t> Args = {3, 1, 4};

  Module M;
  Function *F = generateProgram(M, "g", Opts);
  Args.resize(F->params().size());
  expectRoundTrip(*F, Args);

  splitCriticalEdges(*F);
  expectRoundTrip(*F, Args);

  DominatorTree DT(*F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(*F, DT, Build);
  expectRoundTrip(*F, Args); // Phis and versioned names survive the trip.

  Liveness LV(*F);
  coalesceSSA(*F, DT, LV);
  expectRoundTrip(*F, Args);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripPropertyTest,
                         ::testing::Range(1u, 21u));

/// One line per function, variable and block: ids, names, params, preds.
std::string describeIds(const Module &M) {
  std::string Out;
  for (const auto &F : M.functions()) {
    Out += "func " + F->name() + " params";
    for (const Variable *P : F->params())
      Out += " " + std::to_string(P->id());
    Out += "\n";
    for (const auto &V : F->variables())
      Out += "var " + std::to_string(V->id()) + " " + V->name() + "\n";
    for (const auto &B : F->blocks()) {
      Out += "block " + std::to_string(B->id()) + " " + B->name() + " preds";
      for (const BasicBlock *P : B->preds())
        Out += " " + std::to_string(P->id());
      Out += "\n";
    }
  }
  return Out;
}

TEST(TextRoundTripTest, ReparsingThePrintKeepsBytesIdsNamesAndPreds) {
  std::vector<std::string> Texts = testprogs::parserCorpus();
  for (size_t I = 0; I != Texts.size(); ++I) {
    SCOPED_TRACE("corpus text " + std::to_string(I));
    std::string Error;
    std::unique_ptr<Module> M = parseModule(Texts[I], Error);
    ASSERT_NE(M, nullptr) << Error;
    std::string Printed = printModule(*M);
    std::unique_ptr<Module> Again = parseModule(Printed, Error);
    ASSERT_NE(Again, nullptr) << Error;
    EXPECT_EQ(printModule(*Again), Printed);
    EXPECT_EQ(describeIds(*Again), describeIds(*M));
  }
}

} // namespace
