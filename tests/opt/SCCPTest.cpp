//===- tests/opt/SCCPTest.cpp ---------------------------------------------===//
//
// Sparse conditional constant/copy propagation: folding matches the
// interpreter bit for bit, branch folding deletes the unreachable region
// (and demotes any phi stranded with one predecessor), and the sparse
// part — evaluating only along executable edges — folds constants a
// path-insensitive analysis would miss.
//
//===----------------------------------------------------------------------===//

#include "opt/SCCP.h"

#include "../common/TestUtils.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "ssa/SSABuilder.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>
#include <unordered_map>

using namespace fcc;

namespace {

void toSSA(Function &F, bool FoldCopies = true) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.FoldCopies = FoldCopies;
  buildSSA(F, DT, Opts);
}

unsigned countBlocks(const Function &F) {
  unsigned N = 0;
  for (const auto &B : F.blocks()) {
    (void)B;
    ++N;
  }
  return N;
}

void expectNoDegeneratePhis(const Function &F) {
  for (const auto &B : F.blocks())
    EXPECT_TRUE(B->phis().empty() || B->getNumPreds() >= 2)
        << "block " << B->name() << " keeps single-predecessor phis";
}

TEST(SCCPTest, FoldsStraightLineArithmetic) {
  auto M = parseSingleFunctionOrDie(R"(
func @f() {
entry:
  %a = const 6
  %b = const 7
  %c = mul %a, %b
  %d = add %c, 1
  ret %d
}
)");
  Function &F = *M->functions()[0];
  toSSA(F);
  SCCPStats St = runSCCP(F);
  EXPECT_GE(St.ConstantsFolded, 2u) << "both the mul and the add fold";
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(testutils::run(F).ReturnValue, 43);
}

TEST(SCCPTest, FoldingMatchesInterpreterTotalSemantics) {
  // Division and modulo are total (x/0 = x%0 = 0, INT64_MIN / -1 wraps to
  // INT64_MIN, INT64_MIN % -1 = 0) and arithmetic wraps; the folder must
  // agree with the interpreter on all of it, or folded code diverges from
  // the reference. Each edge case is stored to its own memory word.
  const char *Source = R"(
func @f() {
entry:
  %a = const -7
  %z = const 0
  %d = div %a, %z
  %m = mod %a, %z
  %q = div %a, 2
  %min = const -9223372036854775808
  %m1 = const -1
  %dm = div %min, %m1
  %mm = mod %min, %m1
  %n = neg %min
  %big = const 4611686018427387905
  %w = mul %big, 2
  store 0, %d
  store 1, %m
  store 2, %q
  store 3, %dm
  store 4, %mm
  store 5, %n
  store 6, %w
  %s = add %d, %m
  %t = add %s, %q
  ret %t
}
)";
  const std::vector<int64_t> Want = {0, 0, -3, INT64_MIN, 0, INT64_MIN,
                                     INT64_MIN + 2};
  auto MRef = parseSingleFunctionOrDie(Source);
  auto MGot = parseSingleFunctionOrDie(Source);
  Function &F = *MGot->functions()[0];
  toSSA(F);
  SCCPStats St = runSCCP(F);
  EXPECT_EQ(St.ConstantsFolded, 9u) << "every non-const def folds";

  // Executed: the interpreter on the unfolded source.
  std::vector<int64_t> Memory =
      testutils::run(*MRef->functions()[0]).FinalMemory;
  Memory.resize(Want.size());
  EXPECT_EQ(Memory, Want);
  // Folded: each stored value is now a const holding the same value.
  std::unordered_map<const Variable *, int64_t> Consts;
  std::vector<int64_t> Stored;
  for (const auto &B : F.blocks())
    for (const auto &I : B->insts()) {
      if (I->opcode() == Opcode::Const)
        Consts[I->getDef()] = I->getOperand(0).getImm();
      else if (I->opcode() == Opcode::Store)
        Stored.push_back(Consts.at(I->getOperand(1).getVar()));
    }
  EXPECT_EQ(Stored, Want);
  testutils::expectSameBehavior(*MRef->functions()[0], F);
}

TEST(SCCPTest, ForwardsCopiesToTheirSource) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%a) {
entry:
  %b = copy %a
  %c = copy %b
  %d = add %c, %b
  ret %d
}
)");
  Function &F = *M->functions()[0];
  // Keep the source-level copies through SSA construction so SCCP, not
  // the builder, forwards them.
  toSSA(F, /*FoldCopies=*/false);
  SCCPStats St = runSCCP(F);
  EXPECT_GE(St.CopiesForwarded, 2u);
  EXPECT_EQ(F.staticCopyCount(), 0u);
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(testutils::run(F, {21}).ReturnValue, 42);
}

TEST(SCCPTest, FoldsConstantBranchAndDeletesDeadRegion) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%x) {
entry:
  %c = const 0
  cbr %c, dead, live
dead:
  %a = mul %x, 99
  br join
live:
  %b = add %x, 5
  br join
join:
  %m = phi [%a, dead], [%b, live]
  ret %m
}
)");
  Function &F = *M->functions()[0];
  // Already strict SSA as parsed (explicit phis): buildSSA would assert.
  unsigned Before = countBlocks(F);
  SCCPStats St = runSCCP(F);
  EXPECT_EQ(St.BranchesFolded, 1u);
  EXPECT_GE(St.BlocksRemoved, 1u);
  EXPECT_LT(countBlocks(F), Before);
  // The join lost a predecessor; its phi must have been demoted, not kept
  // as a degenerate one-operand merge.
  expectNoDegeneratePhis(F);
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(testutils::run(F, {10}).ReturnValue, 15);
}

TEST(SCCPTest, PropagatesOnlyAlongExecutableEdges) {
  // The sparse win Wegman-Zadeck describe: x is 5 on the only executable
  // path into the join; the dead path's conflicting 99 must not block the
  // fold, so the whole function collapses to `ret 25`.
  auto M = parseSingleFunctionOrDie(R"(
func @f() {
entry:
  %c = const 1
  cbr %c, taken, skipped
skipped:
  %x1 = const 99
  br join
taken:
  %x2 = const 5
  br join
join:
  %x = phi [%x1, skipped], [%x2, taken]
  %r = mul %x, %x
  ret %r
}
)");
  Function &F = *M->functions()[0];
  // Already strict SSA as parsed (explicit phis): buildSSA would assert.
  SCCPStats St = runSCCP(F);
  EXPECT_EQ(St.BranchesFolded, 1u);
  EXPECT_GE(St.ConstantsFolded, 1u) << "x*x folds through the live phi arm";
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(testutils::run(F).ReturnValue, 25);
}

class SCCPPropertyTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(SCCPPropertyTest, PreservesSemanticsOnGeneratedPrograms) {
  GeneratorOptions Opts;
  Opts.Seed = GetParam();
  Opts.SizeBudget = 8 + GetParam() % 24;
  Opts.NumParams = 1 + GetParam() % 3;
  Opts.CopyPercent = 35;

  Module MRef, MGot;
  Function *Ref = generateProgram(MRef, "g", Opts);
  Function *Got = generateProgram(MGot, "g", Opts);
  toSSA(*Got);
  runSCCP(*Got);
  std::string Error;
  ASSERT_TRUE(verifyFunction(*Got, Error)) << Error;
  expectNoDegeneratePhis(*Got);
  for (const auto &Args :
       testutils::interestingArgs(static_cast<unsigned>(Ref->params().size())))
    testutils::expectSameBehavior(*Ref, *Got, Args);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SCCPPropertyTest, ::testing::Range(1u, 21u));

} // namespace
