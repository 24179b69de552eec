//===- tests/regalloc/SpillRewriterTest.cpp -------------------------------===//

#include "regalloc/SpillRewriter.h"

#include "../common/TestPrograms.h"
#include "interp/Interpreter.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Variable.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "pipeline/Pipeline.h"
#include "workload/ProgramGenerator.h"
#include <chrono>
#include <gtest/gtest.h>
#include <set>
#include <stdexcept>

using namespace fcc;

namespace {

/// A register-starved victim live across a busy loop that never touches it:
/// the shape live-range splitting exists for. %keep is defined before the
/// loop, unreferenced inside it, and consumed after.
constexpr const char *LiveThroughLoop = R"(
func @livethrough(%n) {
entry:
  %keep = mul %n, 7
  %i = const 0
  %acc = const 0
  br header
header:
  %c = cmplt %i, %n
  cbr %c, body, exit
body:
  %t = mul %i, %i
  %acc = add %acc, %t
  %i = add %i, 1
  br header
exit:
  %r = add %acc, %keep
  ret %r
}
)";

/// More parameters than a two-register bank can ever hold: the calling
/// convention makes parameters interfere pairwise, so dissolving some of
/// them into stack residents is the only way to color.
constexpr const char *ManyParams = R"(
func @manyparams(%a, %b, %c, %d) {
entry:
  %s1 = add %a, %b
  %s2 = add %c, %d
  %s3 = mul %s1, %s2
  %s4 = sub %s3, %a
  %s5 = add %s4, %d
  ret %s5
}
)";

/// LiveThroughLoop with the names the spill rewriter generates first
/// already taken: variables %st0 and %st1 and the exit block spb0.
constexpr const char *TakenSpillNames = R"(
func @taken(%n) {
entry:
  %st0 = mul %n, 7
  %i = const 0
  %acc = const 0
  br header
header:
  %c = cmplt %i, %n
  cbr %c, body, spb0
body:
  %st1 = mul %i, %i
  %acc = add %acc, %st1
  %i = add %i, 1
  br header
spb0:
  %r = add %acc, %st0
  ret %r
}
)";

ExecutionResult execute(const Function &F, const std::vector<int64_t> &Args) {
  return Interpreter().run(F, Args);
}

void expectSameBehavior(const ExecutionResult &Ref, const ExecutionResult &Got,
                        const std::string &Label) {
  ASSERT_TRUE(Ref.Completed) << Label;
  ASSERT_TRUE(Got.Completed) << Label;
  EXPECT_EQ(Ref.ReturnValue, Got.ReturnValue) << Label;
  EXPECT_EQ(Ref.FinalMemory, Got.FinalMemory)
      << Label << ": spill slots leaked into observable memory";
}

/// The complete-allocation contract: empty spill set, every colored
/// variable inside the machine's global register range.
void checkComplete(const SpillRewriteResult &R, const MachineModel &MM,
                   const std::string &Label) {
  EXPECT_TRUE(R.Alloc.Spilled.empty())
      << Label << ": insertSpillCode returned with a non-empty spill set";
  for (int Reg : R.Alloc.RegisterOf)
    if (Reg >= 0) {
      EXPECT_LT(static_cast<unsigned>(Reg), MM.totalRegisters()) << Label;
    }
}

/// Every colored variable must sit inside its own class's bank.
void expectInsideClassBanks(const Function &F, const SpillRewriteResult &R,
                            const MachineModel &MM, const std::string &Label) {
  std::vector<unsigned> ClassOf = classifyVariables(F, MM);
  for (const auto &V : F.variables()) {
    int Reg = R.Alloc.RegisterOf[V->id()];
    if (Reg < 0)
      continue;
    EXPECT_EQ(MM.classOfRegister(static_cast<unsigned>(Reg)), ClassOf[V->id()])
        << Label << ": " << V->name() << " colored outside its class bank";
  }
}

TEST(SpillRewriterTest, KernelsConvergeAndStayCorrectAtEveryBank) {
  for (unsigned K : {2u, 4u, 8u}) {
    for (const RoutineSpec &Spec : kernelSuite()) {
      auto M = Spec.materialize();
      Function &F = *M->functions()[0];
      ExecutionResult Ref = execute(F, Spec.Args);
      runPipeline(F, PipelineKind::New);

      SpillRewriteOptions Opts;
      Opts.Machine = uniformMachine(K);
      std::string Label = Spec.Name + "/uniform" + std::to_string(K);
      SpillRewriteResult R = insertSpillCode(F, Opts);
      checkComplete(R, Opts.Machine, Label);

      std::string Error;
      ASSERT_TRUE(verifyFunction(F, Error)) << Label << ": " << Error;
      expectSameBehavior(Ref, execute(F, Spec.Args), Label);
    }
  }
}

TEST(SpillRewriterTest, TwoRegisterTortureLoop) {
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  ExecutionResult Ref = execute(F, {7, 5});

  SpillRewriteOptions Opts;
  Opts.Machine = uniformMachine(2);
  SpillRewriteResult R = insertSpillCode(F, Opts);
  checkComplete(R, Opts.Machine, "nested/uniform2");

  // Five values are live through the inner loop; two registers cannot hold
  // them, so real spill traffic must exist and must execute.
  EXPECT_GT(R.SpillStores, 0u);
  EXPECT_GT(R.Reloads, 0u);
  EXPECT_GT(R.Iterations, 1u);
  ExecutionResult Got = execute(F, {7, 5});
  EXPECT_GT(Got.SpillOpsExecuted, 0u);
  expectSameBehavior(Ref, Got, "nested/uniform2");
}

TEST(SpillRewriterTest, SplitsLiveThroughRangeInsteadOfDissolvingIt) {
  auto Split = parseSingleFunctionOrDie(LiveThroughLoop);
  auto Dissolve = parseSingleFunctionOrDie(LiveThroughLoop);
  ExecutionResult Ref = execute(*Split->functions()[0], {9});

  // Four registers make %keep the only victim: %i, %n, %acc plus a body
  // temporary fill the bank inside the loop, and %keep is the cheapest
  // name crossing it.
  SpillRewriteOptions Opts;
  Opts.Machine = uniformMachine(4);
  SpillRewriteResult RS = insertSpillCode(*Split->functions()[0], Opts);
  Opts.SplitLiveRanges = false;
  SpillRewriteResult RE = insertSpillCode(*Dissolve->functions()[0], Opts);

  EXPECT_GT(RS.RangesSplit, 0u)
      << "%keep crosses the loop unreferenced; splitting must trigger";
  EXPECT_EQ(RE.RangesSplit, 0u);
  EXPECT_GT(RE.SpillStores + RE.Reloads, 0u);

  // Splitting pays one store per loop entry and one reload per exit;
  // dissolving executes at best the same traffic, never less.
  ExecutionResult GotS = execute(*Split->functions()[0], {9});
  ExecutionResult GotE = execute(*Dissolve->functions()[0], {9});
  EXPECT_GT(GotS.SpillOpsExecuted, 0u);
  EXPECT_LE(GotS.SpillOpsExecuted, GotE.SpillOpsExecuted);
  expectSameBehavior(Ref, GotS, "split");
  expectSameBehavior(Ref, GotE, "spill-everywhere");
}

TEST(SpillRewriterTest, InfeasibleBankThrowsInsteadOfLooping) {
  auto M = parseSingleFunctionOrDie(testprogs::SumLoop);
  Function &F = *M->functions()[0];
  SpillRewriteOptions Opts;
  Opts.Machine = uniformMachine(1); // add %sum, %i needs two registers.
  Opts.MaxIterations = 4;
  EXPECT_THROW(insertSpillCode(F, Opts), std::runtime_error);
}

TEST(SpillRewriterTest, ExcessParametersBecomeStackResident) {
  auto M = parseSingleFunctionOrDie(ManyParams);
  Function &F = *M->functions()[0];
  ExecutionResult Ref = execute(F, {3, 5, 7, 11});

  SpillRewriteOptions Opts;
  Opts.Machine = uniformMachine(2);
  SpillRewriteResult R = insertSpillCode(F, Opts);
  checkComplete(R, Opts.Machine, "manyparams/uniform2");

  // Four pairwise-interfering parameters against two registers: at least
  // two must have left the coloring problem, holding no register.
  unsigned StackParams = 0;
  for (const char *Name : {"a", "b", "c", "d"}) {
    const Variable *P = F.findVariable(Name);
    ASSERT_NE(P, nullptr);
    if (R.Alloc.RegisterOf[P->id()] < 0)
      ++StackParams;
  }
  EXPECT_GE(StackParams, 2u);
  expectSameBehavior(Ref, execute(F, {3, 5, 7, 11}), "manyparams/uniform2");
}

TEST(SpillRewriterTest, RewrittenCodeRoundTripsThroughText) {
  auto M = parseSingleFunctionOrDie(testprogs::NestedLoops);
  Function &F = *M->functions()[0];
  SpillRewriteOptions Opts;
  Opts.Machine = uniformMachine(2);
  insertSpillCode(F, Opts);

  std::string Text = printFunction(F);
  std::string Error;
  auto Reparsed = parseModule(Text, Error);
  ASSERT_NE(Reparsed, nullptr) << Error;
  ASSERT_TRUE(verifyFunction(*Reparsed->functions()[0], Error)) << Error;
  EXPECT_EQ(printFunction(*Reparsed->functions()[0]), Text);
}

TEST(SpillRewriterTest, DeterministicAcrossIdenticalInputs) {
  auto M1 = parseSingleFunctionOrDie(testprogs::NestedLoops);
  auto M2 = parseSingleFunctionOrDie(testprogs::NestedLoops);
  SpillRewriteOptions Opts;
  Opts.Machine = uniformMachine(2);
  SpillRewriteResult R1 = insertSpillCode(*M1->functions()[0], Opts);
  SpillRewriteResult R2 = insertSpillCode(*M2->functions()[0], Opts);
  EXPECT_EQ(R1.Alloc.RegisterOf, R2.Alloc.RegisterOf);
  EXPECT_EQ(R1.SpillStores, R2.SpillStores);
  EXPECT_EQ(R1.Reloads, R2.Reloads);
  EXPECT_EQ(R1.RangesSplit, R2.RangesSplit);
  EXPECT_EQ(R1.SlotsUsed, R2.SlotsUsed);
  EXPECT_EQ(printFunction(*M1->functions()[0]),
            printFunction(*M2->functions()[0]));
}

TEST(SpillRewriterTest, TwoClassMachineRespectsClassBanks) {
  auto M = parseSingleFunctionOrDie(testprogs::ArraySum);
  Function &F = *M->functions()[0];
  ExecutionResult Ref = execute(F, {6});
  runPipeline(F, PipelineKind::New);

  SpillRewriteOptions Opts;
  ASSERT_TRUE(parseMachineModel("embedded", Opts.Machine));
  SpillRewriteResult R = insertSpillCode(F, Opts);
  checkComplete(R, Opts.Machine, "arraysum/embedded");

  expectInsideClassBanks(F, R, Opts.Machine, "arraysum/embedded");
  expectSameBehavior(Ref, execute(F, {6}), "arraysum/embedded");
}

TEST(SpillRewriterTest, GeneratedProgramsConvergeInsideTwoClassBanks) {
  // The fuzzer's oracle allocates only uniform banks; these runs put the
  // per-class thresholds of simplify and select under randomized programs,
  // straight from the New pipeline and after the optimizer.
  std::vector<PassKind> Passes;
  ASSERT_TRUE(parsePassSequence("sccp,adce,pre", Passes));
  unsigned Spilling = 0;
  for (const char *Name : {"dsp", "embedded"}) {
    MachineModel MM;
    ASSERT_TRUE(parseMachineModel(Name, MM));
    for (bool Optimize : {false, true})
      for (unsigned Run = 0; Run != 50; ++Run) {
        GeneratorOptions G = fuzzerOptionsForRun(/*MasterSeed=*/17, Run);
        Module M;
        Function &F = *generateProgram(M, "g", G);
        std::vector<int64_t> Args;
        for (unsigned P = 0; P != G.NumParams; ++P)
          Args.push_back(static_cast<int64_t>((Run + P) % 7) - 1);
        ExecutionResult Ref = execute(F, Args);

        PipelineOptions PO;
        if (Optimize)
          PO.Passes = Passes;
        runPipeline(F, PO);
        SpillRewriteOptions Opts;
        Opts.Machine = MM;
        SpillRewriteResult R = insertSpillCode(F, Opts);

        std::string Label = std::string(Name) + (Optimize ? "+passes" : "") +
                            "/run" + std::to_string(Run);
        checkComplete(R, MM, Label);
        expectInsideClassBanks(F, R, MM, Label);
        std::string Error;
        ASSERT_TRUE(verifyFunction(F, Error)) << Label << ": " << Error;
        expectSameBehavior(Ref, execute(F, Args), Label);
        Spilling += R.Iterations > 1;
      }
  }
  // Most of these programs overflow a bank of three or six.
  EXPECT_GT(Spilling, 100u);
}

TEST(SpillRewriterTest, FreshNamesSkipNamesTheInputTook) {
  auto M = parseSingleFunctionOrDie(TakenSpillNames);
  Function &F = *M->functions()[0];
  ExecutionResult Ref = execute(F, {9});
  const unsigned InputVars = F.numVariables();

  SpillRewriteOptions Opts;
  Opts.Machine = uniformMachine(3);
  SpillRewriteResult R = insertSpillCode(F, Opts);
  checkComplete(R, Opts.Machine, "taken/uniform3");
  // Both rewrites ran: a split made edge blocks, and spill-everywhere
  // made temporaries.
  EXPECT_GT(R.RangesSplit, 0u);
  EXPECT_GT(F.numVariables(), InputVars);

  std::set<std::string> VarNames, BlockNames;
  for (const auto &V : F.variables())
    EXPECT_TRUE(VarNames.insert(V->name()).second)
        << "variable %" << V->name() << " named twice";
  for (const auto &B : F.blocks())
    EXPECT_TRUE(BlockNames.insert(B->name()).second)
        << "block " << B->name() << " named twice";
  // The fresh names resumed right after the taken ones.
  EXPECT_TRUE(VarNames.count("st2"));
  EXPECT_TRUE(BlockNames.count("spb1"));

  std::string Text = printFunction(F);
  std::string Error;
  auto Reparsed = parseModule(Text, Error);
  ASSERT_NE(Reparsed, nullptr) << Error;
  EXPECT_EQ(printFunction(*Reparsed->functions()[0]), Text);
  expectSameBehavior(Ref, execute(F, {9}), "taken/uniform3");
}

TEST(RegallocCliffTest, GeneratedProgramAllocatesOnDspUnderOneSecond) {
  // big-shapes' gen400 recipe. Rebuilding dominators, loops and liveness
  // for every split victim, and rescanning every node at every simplify
  // pick, took seconds here.
  GeneratorOptions G;
  G.Seed = 11;
  G.SizeBudget = 400;
  G.NumVars = 74;
  G.NumParams = 3;
  G.MaxLoopDepth = 3;
  G.LoopTripMax = 3;
  G.CopyPercent = 20;
  G.MemPercent = 10;
  G.RunLength = 6;
  const std::vector<int64_t> Args = {3, 5, 7};
  MachineModel Dsp;
  ASSERT_TRUE(parseMachineModel("dsp", Dsp));

  Module M;
  Function &F = *generateProgram(M, "gen400", G);
  ExecutionResult Ref = execute(F, Args);
  PipelineOptions Opts;
  Opts.Machine = &Dsp;
  auto Start = std::chrono::steady_clock::now();
  PipelineResult Result = runPipeline(F, Opts);
  std::chrono::duration<double> Took =
      std::chrono::steady_clock::now() - Start;
  EXPECT_LT(Took.count(), 1.0)
      << Result.RegallocIterations << " color/rewrite rounds";
  ASSERT_TRUE(Result.Allocated);
  EXPECT_GT(Result.RegallocIterations, 1u);
  std::string Error;
  ASSERT_TRUE(verifyFunction(F, Error)) << Error;
  expectSameBehavior(Ref, execute(F, Args), "gen400/dsp");

  // The same compile in two steps exposes the final allocation: its spill
  // set is empty, and the code matches the one-step compile.
  Module M2;
  Function &F2 = *generateProgram(M2, "gen400", G);
  runPipeline(F2, PipelineKind::New);
  SpillRewriteOptions SR;
  SR.Machine = Dsp;
  checkComplete(insertSpillCode(F2, SR), Dsp, "gen400/dsp");
  EXPECT_EQ(printFunction(F2), printFunction(F));
}

} // namespace
