//===- tests/regalloc/CompactLivenessTest.cpp -----------------------------===//
//
// The allocator and its spill rewriter read UpwardExposedLiveness, the
// dense solve over only the names with an upward-exposed use, and build
// the interference graph from it. These tests pin that both answer as the
// dense Liveness over every name does, on the code the allocator sees:
// phi-free, with any number of definitions per name. The corpus is the 169
// paper-suite routines and 300 fuzzer programs after New with sccp,adce,pre,
// and the same code after every round of spill rewriting on dsp and on two
// registers. The graphs are also held to a reference kept here: Chaitin's
// backward walk over variable ids, seeded from dense live-out sets, which
// shares no code with the graph's walk over nodes.
//
//===----------------------------------------------------------------------===//

#include "analysis/Liveness.h"
#include "baseline/InterferenceGraph.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/IRPrinter.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "opt/PassManager.h"
#include "pipeline/Pipeline.h"
#include "regalloc/SpillRewriter.h"
#include "support/IndexSet.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

using namespace fcc;

namespace {

/// The paper suite and 300 fuzzer programs, printed.
const std::vector<std::string> &corpus() {
  static const std::vector<std::string> Texts = [] {
    std::vector<std::string> Out;
    for (const RoutineSpec &Spec : paperSuite())
      Out.push_back(printModule(*Spec.materialize()));
    for (unsigned I = 0; I != 300; ++I) {
      Module M;
      generateProgram(M, "fuzz" + std::to_string(I),
                      fuzzerOptionsForRun(29, I));
      Out.push_back(printModule(M));
    }
    return Out;
  }();
  return Texts;
}

/// \p Text compiled by New with sccp,adce,pre. The function stays in
/// memory, so it keeps the ids of the SSA names coalescing removed, as the
/// allocator sees it.
std::unique_ptr<Module> optimized(const std::string &Text) {
  std::unique_ptr<Module> M = parseSingleFunctionOrDie(Text);
  PipelineOptions Opts;
  EXPECT_TRUE(parsePassSequence("sccp,adce,pre", Opts.Passes));
  runPipeline(*M->functions()[0], Opts);
  return M;
}

/// Calls \p Check on every function of the corpus after the optimizer, and
/// on each again after every round of spill rewriting on dsp and on two
/// registers: a rewrite capped at k rounds that has not converged throws
/// and leaves the code of its k-th round.
template <typename CheckFn> void forEachAllocatorInput(CheckFn Check) {
  MachineModel Dsp;
  ASSERT_TRUE(parseMachineModel("dsp", Dsp));
  for (const std::string &Text : corpus()) {
    std::unique_ptr<Module> M = optimized(Text);
    Check(*M->functions()[0], "optimized");
    if (::testing::Test::HasFatalFailure())
      return;
    for (const MachineModel &MM : {Dsp, uniformMachine(2)}) {
      SpillRewriteOptions Opts;
      Opts.Machine = MM;
      for (Opts.MaxIterations = 1;; ++Opts.MaxIterations) {
        std::unique_ptr<Module> Round = optimized(Text);
        Function &F = *Round->functions()[0];
        try {
          insertSpillCode(F, Opts);
          break;
        } catch (const std::runtime_error &) {
        }
        Check(F, MM.Name + " round " + std::to_string(Opts.MaxIterations));
        if (::testing::Test::HasFatalFailure())
          return;
        ASSERT_LT(Opts.MaxIterations, 16u) << F.name() << " never converged";
      }
    }
  }
}

TEST(CompactLivenessTest, AnswersEveryQueryAsDenseLivenessDoes) {
  unsigned Functions = 0, Narrowed = 0;
  forEachAllocatorInput([&](const Function &F, const std::string &Where) {
    ++Functions;
    Liveness Dense(F);
    UpwardExposedLiveness Compact(F);
    Narrowed += Compact.numSlots() < F.numVariables();
    for (const auto &B : F.blocks()) {
      IndexSet In(F.numVariables()), Out(F.numVariables());
      Compact.forEachLiveIn(B.get(), [&](unsigned Id) { In.insert(Id); });
      Compact.forEachLiveOut(B.get(), [&](unsigned Id) { Out.insert(Id); });
      ASSERT_TRUE(In == Dense.liveIn(B.get()))
          << F.name() << " (" << Where << "): live-in of " << B->name();
      ASSERT_TRUE(Out == Dense.liveOut(B.get()))
          << F.name() << " (" << Where << "): live-out of " << B->name();
      for (const Variable *V : F.variables())
        ASSERT_EQ(Compact.isLiveIn(B.get(), V), Dense.isLiveIn(B.get(), V))
            << F.name() << " (" << Where << "): " << V->name() << " into "
            << B->name();
    }
  });
  // Spill rounds add functions; most solve fewer slots than names.
  EXPECT_GT(Functions, 469u * 2);
  EXPECT_GT(Narrowed, Functions / 2);
}

/// Interference pairs (lower id first) from Chaitin's backward walk over
/// variable ids, seeded with dense live-out sets: every definition
/// interferes with what is live after it except a copy's source, and the
/// parameters with each other and with what is live at the entry.
std::set<std::pair<unsigned, unsigned>> referencePairs(const Function &F) {
  Liveness LV(F);
  std::set<std::pair<unsigned, unsigned>> Pairs;
  auto Add = [&](unsigned A, unsigned B) {
    if (A != B)
      Pairs.insert({std::min(A, B), std::max(A, B)});
  };
  for (const auto &B : F.blocks()) {
    IndexSet Live = LV.liveOut(B.get());
    for (auto It = B->insts().rbegin(); It != B->insts().rend(); ++It) {
      const Instruction &I = **It;
      if (const Variable *Def = I.getDef()) {
        Live.erase(Def->id());
        const Variable *Src = I.isCopy() && I.getOperand(0).isVar()
                                  ? I.getOperand(0).getVar()
                                  : nullptr;
        Live.forEach([&](unsigned Id) {
          if (!Src || Id != Src->id())
            Add(Def->id(), Id);
        });
      }
      I.forEachUsedVar([&](const Variable *V) { Live.insert(V->id()); });
    }
    if (B.get() != F.entry())
      continue;
    for (const Variable *P : F.params())
      Live.erase(P->id());
    for (const Variable *P : F.params()) {
      Live.forEach([&](unsigned Id) { Add(P->id(), Id); });
      for (const Variable *Q : F.params())
        Add(P->id(), Q->id());
    }
  }
  return Pairs;
}

TEST(CompactLivenessTest, GraphMatchesTheDenseGraphAndTheReferenceWalk) {
  forEachAllocatorInput([&](const Function &F, const std::string &Where) {
    InterferenceGraph::BuildOptions Opts;
    Opts.BuildAdjacencyLists = true;
    InterferenceGraph FromDense(F, Liveness(F), Opts);
    InterferenceGraph FromCompact(F, UpwardExposedLiveness(F), Opts);
    std::set<std::pair<unsigned, unsigned>> Reference = referencePairs(F);
    ASSERT_EQ(FromCompact.edgeCount(), FromDense.edgeCount())
        << F.name() << " (" << Where << ")";
    ASSERT_EQ(FromCompact.edgeCount(), Reference.size())
        << F.name() << " (" << Where << ")";
    // Equal counts, so the graphs match when every reference pair
    // interferes in both.
    for (auto [A, B] : Reference) {
      const Variable *VA = F.variable(A), *VB = F.variable(B);
      ASSERT_TRUE(FromCompact.interfere(VA, VB) && FromDense.interfere(VA, VB))
          << F.name() << " (" << Where << "): " << VA->name() << " and "
          << VB->name();
    }
    for (unsigned Node = 0; Node != FromCompact.numNodes(); ++Node)
      for (unsigned Neighbor : FromCompact.neighborsOf(Node))
        ASSERT_TRUE(FromCompact.interfere(FromCompact.nodeVariable(Node),
                                          FromCompact.nodeVariable(Neighbor)));
  });
}

} // namespace
