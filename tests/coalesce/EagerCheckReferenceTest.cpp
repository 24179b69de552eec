//===- tests/coalesce/EagerCheckReferenceTest.cpp -------------------------===//
//
// The eager set checks against a reference that does what their name says:
// before every union, merge both sets' member lists and run Figure 1's
// stack scan over the whole merged list. The library tests only the pairs
// across the two sets, reached from the smaller one, and keeps per-member
// links current across unions; every decision must stay the same. Over the
// paper suite, 300 fuzzer programs and small instances of the if-chain,
// loop-nest and wide-join shapes, each as built and after sccp,adce,pre,
// with the filters on and off, FastCoalescer::rep() must agree with the
// reference on every variable and FilterRejections must be equal.
//
//===----------------------------------------------------------------------===//

#include "coalesce/FastCoalescer.h"

#include "../common/ShapeSources.h"
#include "analysis/CFGUtils.h"
#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/IRParser.h"
#include "ir/Module.h"
#include "ir/Variable.h"
#include "ir/Verifier.h"
#include "opt/PassManager.h"
#include "ssa/SSABuilder.h"
#include "support/UnionFind.h"
#include "workload/KernelSuite.h"
#include "workload/ProgramGenerator.h"
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

using namespace fcc;

namespace {

/// Phase 1 of the eager coalescer with the full merged scan as its check:
/// the five Section 3.1 filters, then the Figure 1 stack scan over both
/// sets' merged member lists. Eager mode never evicts, so this one round is
/// the whole partition.
class ReferencePartitioner {
public:
  ReferencePartitioner(Function &F, const DominatorTree &DT,
                       const Liveness &LV, bool UseFilters)
      : F(F), DT(DT), LV(LV), UseFilters(UseFilters) {
    unsigned NumVars = F.numVariables();
    DefBlock.assign(NumVars, nullptr);
    DefPos.assign(NumVars, 0);
    for (Variable *P : F.params())
      DefBlock[P->id()] = F.entry();
    for (const auto &B : F.blocks()) {
      for (const auto &Phi : B->phis())
        DefBlock[Phi->getDef()->id()] = B.get();
      unsigned Pos = 1;
      for (const auto &I : B->insts()) {
        if (Variable *Def = I->getDef()) {
          DefBlock[Def->id()] = B.get();
          DefPos[Def->id()] = Pos;
        }
        ++Pos;
      }
    }
    SortKey.assign(NumVars, 0);
    for (unsigned Id = 0; Id != NumVars; ++Id)
      if (DefBlock[Id])
        SortKey[Id] =
            (static_cast<uint64_t>(DT.preorder(DefBlock[Id])) << 32) |
            DefPos[Id];
    buildSets();
  }

  /// The set's canonical member: a parameter when it holds one, else the
  /// lowest id (FastCoalescer::computePartition's rule).
  const Variable *rep(const Variable *V) {
    unsigned Root = Sets.find(V->id());
    const Variable *Best = nullptr;
    for (unsigned Id : Members[Root]) {
      const Variable *M = F.variable(Id);
      if (!Best || (F.isParam(M) && !F.isParam(Best)) ||
          (F.isParam(M) == F.isParam(Best) && M->id() < Best->id()))
        Best = M;
    }
    return Best;
  }

  unsigned FilterRejections = 0;

private:
  unsigned lastUseIn(const BasicBlock *B, unsigned VarId) const {
    unsigned Pos = 1, Last = 0;
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) {
        if (V->id() == VarId)
          Last = Pos;
      });
      ++Pos;
    }
    return Last;
  }

  bool localOverlap(unsigned ParentId, unsigned ChildId) const {
    BasicBlock *B = DefBlock[ChildId];
    if (LV.isLiveOut(B, F.variable(ParentId)))
      return true;
    unsigned LiveEnd = lastUseIn(B, ParentId);
    if (LiveEnd == 0)
      LiveEnd = DefBlock[ParentId] == B ? DefPos[ParentId] : 0;
    return LiveEnd > DefPos[ChildId] ||
           (DefBlock[ParentId] == B && DefPos[ParentId] == DefPos[ChildId]);
  }

  bool setsWouldInterfere(unsigned RootA, unsigned RootB) const {
    const std::vector<unsigned> &MA = Members[RootA], &MB = Members[RootB];
    std::vector<unsigned> Stack;
    size_t IA = 0, IB = 0;
    while (IA != MA.size() || IB != MB.size()) {
      unsigned Id;
      if (IB == MB.size() ||
          (IA != MA.size() && SortKey[MA[IA]] <= SortKey[MB[IB]]))
        Id = MA[IA++];
      else
        Id = MB[IB++];

      const BasicBlock *IdBlock = DefBlock[Id];
      unsigned Pre = DT.preorder(IdBlock);
      while (!Stack.empty() && Pre > DT.maxPreorder(DefBlock[Stack.back()]))
        Stack.pop_back();
      for (size_t K = Stack.size(); K-- > 0;) {
        unsigned Anc = Stack[K];
        if (DefBlock[Anc] == IdBlock) {
          if (localOverlap(Anc, Id))
            return true;
          continue;
        }
        if (LV.isLiveOut(IdBlock, F.variable(Anc)))
          return true;
        if (LV.isLiveIn(IdBlock, F.variable(Anc)) && localOverlap(Anc, Id))
          return true;
        break;
      }
      Stack.push_back(Id);
    }
    return false;
  }

  void buildSets() {
    unsigned NumVars = F.numVariables();
    Sets = UnionFind(NumVars);
    Members.resize(NumVars);
    for (unsigned Id = 0; Id != NumVars; ++Id)
      Members[Id] = {Id};
    std::vector<unsigned> AcceptedStamp(F.numBlocks(), 0);
    unsigned PhiStamp = 0;
    for (BasicBlock *B : DT.preorderBlocks()) {
      std::map<unsigned, const Instruction *> ClaimedBy;
      for (const auto &Phi : B->phis()) {
        Variable *P = Phi->getDef();
        ++PhiStamp;
        for (unsigned Idx = 0, E = Phi->getNumOperands(); Idx != E; ++Idx) {
          const Operand &O = Phi->getOperand(Idx);
          if (O.isImm())
            continue;
          Variable *A = O.getVar();
          if (Sets.find(A->id()) == Sets.find(P->id()))
            continue;
          BasicBlock *ADef = DefBlock[A->id()];
          auto Claim = ClaimedBy.find(Sets.find(A->id()));
          bool Rejected =
              LV.isLiveIn(B, A) || LV.isLiveOut(ADef, P) ||
              (ADef != B && !ADef->phis().empty() && DefPos[A->id()] == 0 &&
               !F.isParam(A) && LV.isLiveIn(ADef, P)) ||
              (Claim != ClaimedBy.end() && Claim->second != Phi) ||
              AcceptedStamp[ADef->id()] == PhiStamp;
          if (Rejected && UseFilters) {
            ++FilterRejections;
            continue;
          }
          unsigned RootP = Sets.find(P->id()), RootA = Sets.find(A->id());
          if (setsWouldInterfere(RootP, RootA)) {
            ++FilterRejections;
            continue;
          }
          unsigned NewRoot = Sets.unite(RootP, RootA);
          unsigned OldRoot = NewRoot == RootP ? RootA : RootP;
          std::vector<unsigned> Merged;
          std::merge(Members[NewRoot].begin(), Members[NewRoot].end(),
                     Members[OldRoot].begin(), Members[OldRoot].end(),
                     std::back_inserter(Merged), [&](unsigned L, unsigned R) {
                       return SortKey[L] < SortKey[R];
                     });
          Members[NewRoot] = std::move(Merged);
          Members[OldRoot].clear();
          AcceptedStamp[ADef->id()] = PhiStamp;
        }
        ClaimedBy[Sets.find(P->id())] = Phi;
      }
    }
  }

  Function &F;
  const DominatorTree &DT;
  const Liveness &LV;
  bool UseFilters;
  UnionFind Sets;
  std::vector<std::vector<unsigned>> Members; // sorted, by root
  std::vector<BasicBlock *> DefBlock;
  std::vector<unsigned> DefPos;
  std::vector<uint64_t> SortKey;
};

/// Takes \p F to pruned, copy-folded SSA the way the pipeline does, then
/// optionally through sccp,adce,pre.
void toSSA(Function &F, bool Optimize) {
  enforceStrictness(F);
  splitCriticalEdges(F);
  DominatorTree DT(F);
  SSABuildOptions Build;
  Build.FoldCopies = true;
  buildSSA(F, DT, Build);
  if (!Optimize)
    return;
  runPassSequence(F, {PassKind::Sccp, PassKind::Adce, PassKind::Pre});
  splitCriticalEdges(F);
}

/// Compares the library's partition of every function of \p M (taken to
/// SSA, optionally optimized) with the reference's; returns the number of
/// phi-argument unions the reference rejected, so callers can see that the
/// corpus exercises the check.
unsigned expectSamePartitions(Module &M, bool Optimize,
                              const std::string &Label) {
  unsigned Rejections = 0;
  for (const auto &FPtr : M.functions()) {
    Function &F = *FPtr;
    toSSA(F, Optimize);
    DominatorTree DT(F);
    Liveness LV(F);
    for (bool UseFilters : {true, false}) {
      FastCoalescerOptions Opts;
      Opts.UseFilters = UseFilters;
      FastCoalescer Coalescer(F, DT, LV, Opts);
      Coalescer.computePartition();
      ReferencePartitioner Ref(F, DT, LV, UseFilters);
      std::string Where = Label + " @" + F.name() +
                          (Optimize ? " (sccp,adce,pre)" : "") +
                          (UseFilters ? "" : " (no filters)");
      EXPECT_EQ(Coalescer.stats().FilterRejections, Ref.FilterRejections)
          << Where;
      for (unsigned Id = 0, E = F.numVariables(); Id != E; ++Id) {
        const Variable *V = F.variable(Id);
        if (Coalescer.rep(V) != Ref.rep(V)) {
          ADD_FAILURE() << Where << ": variable " << V->name() << " -> "
                        << Coalescer.rep(V)->name() << ", reference "
                        << Ref.rep(V)->name();
          break;
        }
      }
      Rejections += Ref.FilterRejections;
    }
  }
  return Rejections;
}

TEST(EagerCheckReferenceTest, PaperSuiteMatchesTheFullScan) {
  unsigned Rejections = 0;
  for (bool Optimize : {false, true})
    for (const RoutineSpec &Spec : paperSuite()) {
      auto M = Spec.materialize();
      Rejections += expectSamePartitions(*M, Optimize, Spec.Name);
    }
  EXPECT_GT(Rejections, 0u);
}

TEST(EagerCheckReferenceTest, FuzzerProgramsMatchTheFullScan) {
  unsigned Rejections = 0;
  for (bool Optimize : {false, true})
    for (unsigned I = 0; I != 300; ++I) {
      Module M;
      generateProgram(M, "g" + std::to_string(I), fuzzerOptionsForRun(29, I));
      Rejections += expectSamePartitions(M, Optimize, "g" + std::to_string(I));
    }
  EXPECT_GT(Rejections, 0u);
}

TEST(EagerCheckReferenceTest, ShapesMatchTheFullScan) {
  const std::pair<const char *, std::string> Shapes[] = {
      {"if-chain", testprogs::ifChainSource(60)},
      {"loop-nest", testprogs::loopNestSource(40)},
      {"wide-join", testprogs::wideJoinSource(60)},
      {"diamond-chain", testprogs::diamondChainSource(400)}};
  for (bool Optimize : {false, true})
    for (const auto &[Name, Text] : Shapes) {
      auto M = parseSingleFunctionOrDie(Text.c_str());
      expectSamePartitions(*M, Optimize, Name);
    }
}

} // namespace
