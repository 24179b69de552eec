//===- tests/opt/PassManagerTest.cpp --------------------------------------===//
//
// The pass manager: strict sequence parsing (unknown names are rejected,
// never skipped), canonical sequence spelling, stats accumulation across
// a sequence, single-predecessor phi demotion, and the central invariant
// property — no pass ordering over generated programs ever breaks strict
// SSA (the inter-pass verifier stays clean) or observable behaviour.
//
//===----------------------------------------------------------------------===//

#include "opt/PassManager.h"

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
#include <string>
#include <vector>

using namespace fcc;

namespace {

void toSSA(Function &F, bool FoldCopies = true) {
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Opts;
  Opts.FoldCopies = FoldCopies;
  buildSSA(F, DT, Opts);
}

TEST(PassManagerTest, ParsesCanonicalSequences) {
  std::vector<PassKind> Seq;
  EXPECT_TRUE(parsePassSequence("sccp,adce,pre", Seq));
  ASSERT_EQ(Seq.size(), 3u);
  EXPECT_EQ(Seq[0], PassKind::Sccp);
  EXPECT_EQ(Seq[1], PassKind::Adce);
  EXPECT_EQ(Seq[2], PassKind::Pre);
  EXPECT_EQ(passSequenceName(Seq), "sccp,adce,pre");

  Seq.clear();
  EXPECT_TRUE(parsePassSequence("", Seq));
  EXPECT_TRUE(Seq.empty());
  EXPECT_TRUE(parsePassSequence("none", Seq));
  EXPECT_TRUE(Seq.empty());

  // Repeats are legal: running a pass twice is a valid experiment.
  EXPECT_TRUE(parsePassSequence("sccp,sccp", Seq));
  EXPECT_EQ(Seq.size(), 2u);
}

TEST(PassManagerTest, RejectsUnknownPassNamesStrictly) {
  std::vector<PassKind> Seq = {PassKind::Pre};
  std::string Bad;
  EXPECT_FALSE(parsePassSequence("sccp,gvn,adce", Seq, &Bad));
  EXPECT_EQ(Bad, "gvn");
  ASSERT_EQ(Seq.size(), 1u) << "a failed parse must leave the output alone";
  EXPECT_EQ(Seq[0], PassKind::Pre);
  EXPECT_FALSE(parsePassSequence("sccp,,adce", Seq, &Bad))
      << "empty tokens are not silently skipped";
  EXPECT_STREQ(knownPassNames(), "sccp, adce, pre");
  EXPECT_STREQ(passName(PassKind::Sccp), "sccp");
  EXPECT_STREQ(passName(PassKind::Adce), "adce");
  EXPECT_STREQ(passName(PassKind::Pre), "pre");
}

TEST(PassManagerTest, AccumulatesStatsAcrossTheSequence) {
  auto M = parseSingleFunctionOrDie(R"(
func @f(%x) {
entry:
  %c = const 1
  %dead = mul %x, 17
  cbr %c, taken, skipped
skipped:
  %a = add %x, 99
  br join
taken:
  %b = add %x, 1
  br join
join:
  %m = phi [%a, skipped], [%b, taken]
  ret %m
}
)");
  Function &F = *M->functions()[0];
  // Already strict SSA as parsed (explicit phis): buildSSA would assert.
  PassManagerOptions PM;
  PM.Verify = true;
  PassStats St = runPassSequence(F, {PassKind::Sccp, PassKind::Adce}, PM);
  EXPECT_EQ(St.BranchesFolded, 1u) << "SCCP folds the constant cbr";
  EXPECT_GE(St.BlocksRemoved, 1u);
  EXPECT_GE(St.InstsRemoved, 1u) << "ADCE removes the dead mul";
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(testutils::run(F, {4}).ReturnValue, 5);
}

TEST(PassManagerTest, DemotesSinglePredecessorPhis) {
  // The parser happily builds a degenerate one-operand phi; after
  // demotion the merge is an ordinary copy at the block top.
  std::string Error;
  auto M = parseModule(R"(
func @f(%x) {
entry:
  br next
next:
  %p = phi [%x, entry]
  %r = add %p, 1
  ret %r
}
)",
                       Error);
  ASSERT_NE(M, nullptr) << Error;
  Function &F = *M->functions()[0];
  EXPECT_EQ(demoteSinglePredPhis(F), 1u);
  for (const auto &B : F.blocks())
    EXPECT_TRUE(B->phis().empty());
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  EXPECT_EQ(testutils::run(F, {41}).ReturnValue, 42);
  EXPECT_EQ(demoteSinglePredPhis(F), 0u) << "idempotent on phi-free code";
}

/// Every ordering of the three passes that the quality suite and the
/// fuzzer exercise.
const std::vector<std::vector<PassKind>> &orderings() {
  static const std::vector<std::vector<PassKind>> Orders = {
      {PassKind::Sccp, PassKind::Adce},
      {PassKind::Sccp, PassKind::Adce, PassKind::Pre},
      {PassKind::Pre, PassKind::Sccp, PassKind::Adce},
      {PassKind::Adce, PassKind::Pre, PassKind::Sccp},
  };
  return Orders;
}

class PassInvariantTest : public ::testing::TestWithParam<unsigned> {};

// The satellite invariant: no pass sequence may break strict SSA. The
// inter-pass verifier is forced on (it throws std::logic_error naming the
// offending pass), so a violation fails loudly here instead of surfacing
// as a coalescer assertion three stages later.
TEST_P(PassInvariantTest, SequencesKeepSSAInvariantsAndSemantics) {
  GeneratorOptions Opts;
  Opts.Seed = GetParam() * 7919;
  Opts.SizeBudget = 8 + GetParam() % 28;
  Opts.NumParams = 1 + GetParam() % 3;
  Opts.CopyPercent = 30;
  Opts.MemPercent = 20;

  for (const auto &Order : orderings()) {
    Module MRef, MGot;
    Function *Ref = generateProgram(MRef, "g", Opts);
    Function *Got = generateProgram(MGot, "g", Opts);
    toSSA(*Got);
    PassManagerOptions PM;
    PM.Verify = true;
    ASSERT_NO_THROW(runPassSequence(*Got, Order, PM))
        << "sequence " << passSequenceName(Order) << " broke an invariant";
    std::string Error;
    ASSERT_TRUE(verifyFunction(*Got, Error))
        << passSequenceName(Order) << ": " << Error;
    for (const auto &Args : testutils::interestingArgs(
             static_cast<unsigned>(Ref->params().size())))
      testutils::expectSameBehavior(*Ref, *Got, Args);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassInvariantTest, ::testing::Range(1u, 26u));

class CopyForwardingPropertyTest : public ::testing::TestWithParam<unsigned> {};

// sccp,adce is the copy cleanup on SSA: copy-dense programs keep their
// source copies through construction (no folding), SCCP forwards each one
// to its root and ADCE sweeps what dies. A copy may survive only as a phi
// demoted after a branch fold stripped its join to one predecessor, so
// without folds none survives, and the count never grows.
TEST_P(CopyForwardingPropertyTest, SccpAdceRemovesCopiesAndPreservesSemantics) {
  GeneratorOptions Opts;
  Opts.Seed = GetParam();
  Opts.SizeBudget = 10 + GetParam() % 20;
  Opts.NumParams = 1 + GetParam() % 3;
  Opts.CopyPercent = 30;

  Module MRef, MGot;
  Function *Ref = generateProgram(MRef, "g", Opts);
  Function *Got = generateProgram(MGot, "g", Opts);
  toSSA(*Got, /*FoldCopies=*/false);
  unsigned CopiesBefore = Got->staticCopyCount();
  PassManagerOptions PM;
  PM.Verify = true;
  PassStats St = runPassSequence(*Got, {PassKind::Sccp, PassKind::Adce}, PM);
  std::string Error;
  ASSERT_TRUE(verifyFunction(*Got, Error)) << Error;
  EXPECT_LE(Got->staticCopyCount(), CopiesBefore);
  if (St.BranchesFolded == 0 && St.BlocksRemoved == 0) {
    EXPECT_EQ(Got->staticCopyCount(), 0u) << printFunction(*Got);
  }
  for (const auto &Args :
       testutils::interestingArgs(static_cast<unsigned>(Ref->params().size())))
    testutils::expectSameBehavior(*Ref, *Got, Args);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CopyForwardingPropertyTest,
                         ::testing::Range(1u, 26u));

} // namespace
