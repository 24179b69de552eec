//===- perfbench/tests/HelpersTest.cpp ------------------------------------===//
//
// Tests of the benchmark's own helpers: the percentile and its tail-sample
// rule, span self time, the alpha-renamer (including that a renamed unit
// resolves as a structural cache hit, not a miss) and the shape generators.
//
//===----------------------------------------------------------------------===//

#include "Helpers.h"
#include "Workloads.h"

#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/StructuralHash.h"
#include "ir/Verifier.h"
#include "server/ResultCache.h"
#include "service/CompilationService.h"
#include "workload/KernelSuite.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace fcc;
using namespace perfbench;

namespace {

std::vector<double> oneTo(unsigned N) {
  std::vector<double> V;
  for (unsigned I = N; I >= 1; --I)
    V.push_back(I);
  return V;
}

TEST(PercentileTest, NearestRank) {
  EXPECT_EQ(percentile(oneTo(100), 50), 50);
  EXPECT_EQ(percentile(oneTo(100), 90), 90);
  EXPECT_EQ(percentile(oneTo(10), 95), 10);
  EXPECT_EQ(percentile(oneTo(1), 90), 1);
  EXPECT_EQ(percentile({}, 90), 0);
}

TEST(PercentileTest, Median) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(PercentileTest, TailSampleRule) {
  EXPECT_EQ(samplesBeyond(100, 90), 10u);
  EXPECT_EQ(samplesBeyond(99, 90), 9u);
  EXPECT_EQ(samplesBeyond(1000, 99), 10u);
  // p90 needs at least 100 samples before ten lie beyond it, and the
  // percentile of those samples has exactly ten above it.
  std::vector<double> Hundred = oneTo(100);
  EXPECT_EQ(std::count_if(Hundred.begin(), Hundred.end(),
                          [&](double V) { return V > percentile(Hundred, 90); }),
            10);
  EXPECT_EQ(samplesBeyond(101, 90), 10u);
  EXPECT_EQ(samplesBeyond(0, 90), 0u);
}

TEST(PercentileTest, QuietPassesAreTheFastestTenth) {
  std::vector<double> Ns = {50, 10, 40, 20, 90, 30, 80, 60};
  EXPECT_EQ(quietPasses(Ns, 0, 0), (std::vector<size_t>{1}));
  std::vector<double> Twenty(20, 5.0);
  Twenty[7] = Twenty[12] = 1.0;
  EXPECT_EQ(quietPasses(Twenty, 0, 0), (std::vector<size_t>{7, 12}));
  // Widened fastest-first until 100 samples at 30 per pass.
  EXPECT_EQ(quietPasses(Ns, 30, 100), (std::vector<size_t>{1, 3, 5, 2}));
  // Never more than every pass, never fewer than one.
  EXPECT_EQ(quietPasses({7, 5}, 1, 100).size(), 2u);
  EXPECT_EQ(quietPasses({7}, 0, 0), (std::vector<size_t>{0}));
}

TEST(SpanTest, SelfTimeSubtractsDirectChildren) {
  // root [0,100] holds a [10,40] and b [50,90]; b holds c [60,70].
  std::vector<Span> Spans(4);
  Spans[0] = {"root", 0, 100, -1, 0};
  Spans[1] = {"a", 10, 40, 0, 0};
  Spans[2] = {"b", 50, 90, 0, 0};
  Spans[3] = {"a", 60, 70, 2, 0};
  std::map<std::string, uint64_t> Self = selfTimeByName(Spans);
  EXPECT_EQ(Self["root"], 30u);
  EXPECT_EQ(Self["a"], 40u); // 30 + 10, summed by name.
  EXPECT_EQ(Self["b"], 30u);
}

TEST(SpanTest, RecorderNestsAndCloses) {
  SpanRecorder R;
  R.begin("unit", 7);
  {
    SpanScope A(R, "parse", 7);
  }
  {
    SpanScope B(R, "compile", 7);
    SpanScope C(R, "ssa", 7);
  }
  R.end();
  const std::vector<Span> &S = R.spans();
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(S[0].Parent, -1);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[2].Parent, 0);
  EXPECT_EQ(S[3].Parent, 2);
  for (const Span &X : S) {
    EXPECT_LE(X.StartNs, X.EndNs);
    EXPECT_EQ(X.Unit, 7u);
  }
  EXPECT_LE(S[0].StartNs, S[1].StartNs);
  EXPECT_GE(S[0].EndNs, S[2].EndNs);
  std::map<std::string, uint64_t> Self = selfTimeByName(S);
  uint64_t Sum = 0;
  for (const auto &[Name, Ns] : Self)
    Sum += Ns;
  EXPECT_EQ(Sum, S[0].EndNs - S[0].StartNs);
}

const char *Swap = R"(; a comment naming %x and entry
func @swap(%n, %c) {
entry:
  %x = const -3
  %y = add %n, 1
  cbr %c, left, right
left:
  %t = copy %x
  %x = copy %y
  %y = copy %t
  br join
right:
  store %x, %y
  br join
join:
  %r = sub %x, %y
  ret %r
}
)";

TEST(AlphaRenameTest, RenamesEveryNameAndKeepsStructure) {
  std::string Renamed = alphaRename(Swap, "q1_");
  EXPECT_NE(Renamed, Swap);
  EXPECT_NE(Renamed.find("; a comment naming %x and entry"),
            std::string::npos);
  EXPECT_NE(Renamed.find("cbr %q1_c, q1_left, q1_right"), std::string::npos);
  EXPECT_NE(Renamed.find("%q1_x = const -3"), std::string::npos);
  std::string Error;
  auto A = parseModule(Swap, Error);
  auto B = parseModule(Renamed, Error);
  ASSERT_TRUE(A) << Error;
  ASSERT_TRUE(B) << Error;
  EXPECT_EQ(B->functions()[0]->name(), "q1_swap");
  EXPECT_TRUE(B->functions()[0]->findBlock("q1_join"));
  EXPECT_EQ(structuralHash(*A), structuralHash(*B));
}

TEST(AlphaRenameTest, PrintedSuiteRoutinesStayAlphaEquivalent) {
  for (const RoutineSpec &Spec : paperSuite(24)) {
    std::string Text = printModule(*Spec.materialize());
    std::string Error;
    auto A = parseModule(Text, Error);
    auto B = parseModule(alphaRename(Text, "v2_"), Error);
    ASSERT_TRUE(A && B) << Spec.Name << ": " << Error;
    EXPECT_EQ(structuralHash(*A), structuralHash(*B)) << Spec.Name;
  }
}

TEST(AlphaRenameTest, RenamedUnitIsAStructuralHit) {
  ResultCache Cache;
  ServiceOptions Opts;
  Opts.Cache = &Cache;
  Opts.WantRewritten = true;
  CompilationService Svc(Opts);
  std::string Renamed = alphaRename(Swap, "r1_");

  UnitReport First = Svc.compileOne(WorkUnit::fromSource("swap", Swap), 0,
                                    nullptr);
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_FALSE(First.FromCache);

  // Never-seen text, seen structure: served without compiling.
  StatsRegistry Stats;
  UnitReport Variant =
      Svc.compileOne(WorkUnit::fromSource("r1_swap", Renamed), 1, &Stats);
  ASSERT_TRUE(Variant.ok()) << Variant.Error;
  EXPECT_TRUE(Variant.FromCache);
  EXPECT_EQ(Variant.RewrittenText, First.RewrittenText);
  ASSERT_EQ(Variant.Functions.size(), 1u);
  EXPECT_EQ(Variant.Functions[0].Name, "r1_swap");
  ASSERT_EQ(Stats.counters().size(), 1u);
  EXPECT_EQ(Stats.counters()[0].Name, "cache.hits");

  // A structural change is a miss.
  std::string Changed = Renamed;
  Changed.replace(Changed.find("const -3"), 8, "const -4");
  UnitReport Other =
      Svc.compileOne(WorkUnit::fromSource("other", Changed), 2, nullptr);
  ASSERT_TRUE(Other.ok()) << Other.Error;
  EXPECT_FALSE(Other.FromCache);
}

TEST(ShapeTest, GeneratedShapesAreStrictAndSized) {
  std::string Fat = fatBlockSource("fat", 500, 12, 3);
  std::string Chain = blockChainSource("chain", 400, 12, 3);
  std::string Error;
  auto F = parseModule(Fat, Error);
  ASSERT_TRUE(F) << Error;
  auto C = parseModule(Chain, Error);
  ASSERT_TRUE(C) << Error;
  for (const Module *M : {F.get(), C.get()}) {
    const Function &Fn = *M->functions()[0];
    EXPECT_TRUE(verifyFunction(Fn, Error)) << Error;
    EXPECT_TRUE(isStrict(Fn));
    ExecutionResult R = benchInterpreter().run(Fn, {1, 2, 3});
    EXPECT_TRUE(R.Completed);
  }
  EXPECT_EQ(F->functions()[0]->numBlocks(), 1u);
  EXPECT_GE(F->functions()[0]->instructionCount(), 500u);
  EXPECT_GE(C->functions()[0]->numBlocks(), 400u);
  EXPECT_EQ(fatBlockSource("fat", 500, 12, 3), Fat); // Seeded.
}

TEST(WorkloadTest, SameSeedSameInputs) {
  Workload A, B;
  std::string Error;
  ASSERT_TRUE(buildWorkload("daemon-mix", 7, A, Error)) << Error;
  ASSERT_TRUE(buildWorkload("daemon-mix", 7, B, Error)) << Error;
  ASSERT_EQ(A.Inputs.size(), B.Inputs.size());
  unsigned Kinds[3] = {0, 0, 0};
  for (size_t I = 0; I != A.Inputs.size(); ++I) {
    EXPECT_EQ(A.Inputs[I].Source, B.Inputs[I].Source);
    ++Kinds[static_cast<unsigned>(A.Stream[I].Expected)];
  }
  // Exact repeats are the majority; every kind occurs.
  EXPECT_GT(Kinds[static_cast<unsigned>(RequestClass::TextHit)],
            A.Inputs.size() / 2);
  EXPECT_GT(Kinds[static_cast<unsigned>(RequestClass::StructHit)], 0u);
  EXPECT_GT(Kinds[static_cast<unsigned>(RequestClass::Miss)], 0u);
  Workload C;
  ASSERT_TRUE(buildWorkload("daemon-mix", 8, C, Error)) << Error;
  bool Differs = false;
  for (size_t I = 0; I != A.Inputs.size() && !Differs; ++I)
    Differs = A.Inputs[I].Source != C.Inputs[I].Source;
  EXPECT_TRUE(Differs);
}

} // namespace
