//===- tests/analysis/SparseLivenessTest.cpp ------------------------------===//
//
// The sparse per-variable liveness solver against the dense fixed point:
// over strict SSA input both must fill identical live-in/live-out sets —
// on the canonical fixtures, every kernel, and a generator sweep. The
// solver's checked SSA preconditions (multi-definition, use above the
// definition, use of a never-defined name) must be hard errors, because a
// silent violation would just produce too-small live sets. Below the
// dense layout's cut-over bytes() must report the committed flat-buffer
// size under either algorithm; above it, the span layout's own size.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"

#include "../common/TestPrograms.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "ssa/SSABuilder.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

using namespace fcc;

namespace {

void expectIdenticalSets(const Function &F, const std::string &Context) {
  Liveness Dense(F, LivenessAlgorithm::Dense);
  Liveness Sparse(F, LivenessAlgorithm::Sparse);
  // Small functions stay on the block-major layout, where the footprints
  // agree.
  ASSERT_FALSE(Sparse.hasSpanLayout()) << Context;
  ASSERT_EQ(Dense.bytes(), Sparse.bytes()) << Context;
  for (const auto &B : F.blocks()) {
    EXPECT_EQ(Dense.liveIn(B.get()), Sparse.liveIn(B.get()))
        << Context << ": live-in(" << B->name() << ")";
    EXPECT_EQ(Dense.liveOut(B.get()), Sparse.liveOut(B.get()))
        << Context << ": live-out(" << B->name() << ")";
  }
}

/// Takes \p F to pruned, copy-folded SSA — the form the pipeline hands the
/// liveness analysis.
void toSSA(Function &F) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
}

TEST(SparseLivenessTest, AgreesOnCanonicalPrograms) {
  const char *Programs[] = {
      testprogs::StraightLine, testprogs::SumLoop,  testprogs::Diamond,
      testprogs::VirtualSwap,  testprogs::SwapLoop, testprogs::LostCopy,
      testprogs::ArraySum,     testprogs::NestedLoops};
  for (const char *Text : Programs) {
    auto M = parseSingleFunctionOrDie(Text);
    Function &F = *M->functions()[0];
    toSSA(F);
    expectIdenticalSets(F, F.name());
  }
}

TEST(SparseLivenessTest, AgreesOnEveryKernel) {
  for (const RoutineSpec &Spec : kernelSuite()) {
    auto M = Spec.materialize();
    for (auto &F : M->functions()) {
      toSSA(*F);
      expectIdenticalSets(*F, Spec.Name);
    }
  }
}

TEST(SparseLivenessTest, AgreesOnGeneratorSweep) {
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    Module M;
    GeneratorOptions Opts;
    Opts.Seed = Seed;
    Opts.SizeBudget = 40 + static_cast<unsigned>(Seed) * 17;
    Opts.NumVars = 11;
    Function *F = generateProgram(M, "g" + std::to_string(Seed), Opts);
    toSSA(*F);
    expectIdenticalSets(*F, F->name());
  }
}

TEST(SparseLivenessTest, ParamsAreLiveIntoEntry) {
  // Parameters have no defining instruction, so a use anywhere makes them
  // upward-exposed all the way into live-in(entry) — the exact shape the
  // first sparse-solver draft got wrong by modelling them as defined at
  // entry's top.
  auto M = parseSingleFunctionOrDie(testprogs::StraightLine);
  Function &F = *M->functions()[0];
  toSSA(F);
  Liveness LV(F, LivenessAlgorithm::Sparse);
  const Variable *A = nullptr;
  for (const Variable *P : F.params())
    if (P->name() == "a")
      A = P;
  ASSERT_NE(A, nullptr);
  EXPECT_TRUE(LV.isLiveIn(F.entry(), A));
}

TEST(SparseLivenessTest, BytesReportsCommittedSize) {
  // Regression for the capacity-vs-size bug: bytes() must be exactly the
  // committed flat buffer — two sets per block, one word per 64 variables
  // — and, below the dense layout's cut-over, identical across algorithms
  // (PeakBytes comparability depends on it).
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  toSSA(F);
  size_t WordsPerSet = (size_t(F.numVariables()) + 63) / 64;
  size_t Expected = 2 * size_t(F.numBlocks()) * WordsPerSet * sizeof(uint64_t);
  EXPECT_EQ(Liveness(F, LivenessAlgorithm::Dense).bytes(), Expected);
  EXPECT_EQ(Liveness(F, LivenessAlgorithm::Sparse).bytes(), Expected);
}

TEST(SparseLivenessTest, MultipleDefinitionsThrow) {
  // SumLoop before SSA construction redefines %i and %sum — legal input
  // for the dense solver, a hard precondition violation for the sparse
  // walk (its early stop at the defining block assumes uniqueness).
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  EXPECT_NO_THROW(Liveness(F, LivenessAlgorithm::Dense));
  EXPECT_THROW(Liveness(F, LivenessAlgorithm::Sparse), std::invalid_argument);
  try {
    Liveness LV(F, LivenessAlgorithm::Sparse);
    FAIL() << "multi-definition input must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("more than one definition"),
              std::string::npos)
        << E.what();
  }
}

TEST(SparseLivenessTest, UseAboveDefinitionInBlockThrows) {
  auto M = parseSingleFunctionOrDie(R"(
func @ubd(%n) {
entry:
  %y = add %x, %n
  %x = const 2
  %z = add %y, %x
  ret %z
}
)");
  Function &F = *M->functions()[0];
  try {
    Liveness LV(F, LivenessAlgorithm::Sparse);
    FAIL() << "same-block use above the definition must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("used above its definition"),
              std::string::npos)
        << E.what();
  }
}

TEST(SparseLivenessTest, UseOfNeverDefinedVariableThrows) {
  auto M = parseSingleFunctionOrDie(R"(
func @nodef(%n) {
entry:
  %y = add %ghost, %n
  ret %y
}
)");
  Function &F = *M->functions()[0];
  try {
    Liveness LV(F, LivenessAlgorithm::Sparse);
    FAIL() << "use of a never-defined name must throw";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("never defined"), std::string::npos)
        << E.what();
  }
}

} // namespace
