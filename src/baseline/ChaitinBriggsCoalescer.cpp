//===- baseline/ChaitinBriggsCoalescer.cpp --------------------------------===//

#include "baseline/ChaitinBriggsCoalescer.h"

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "baseline/InterferenceGraph.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "support/Stats.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <optional>

using namespace fcc;

unsigned fcc::identifyLiveRangeWebs(Function &F) {
  UnionFind Webs(F.numVariables());
  for (const auto &B : F.blocks())
    for (const auto &Phi : B->phis()) {
      unsigned DefId = Phi->getDef()->id();
      Phi->forEachUsedVar([&](Variable *V) {
        assert(V->rootOrigin() == Phi->getDef()->rootOrigin() &&
               "phi web spans two source variables; was copy folding on?");
        Webs.unite(DefId, V->id());
      });
    }

  // Canonical member: the parameter when the web contains one (the
  // incoming value cannot be renamed away from it), else the lowest id.
  std::vector<Variable *> Rep(F.numVariables(), nullptr);
  unsigned NumWebs = 0;
  for (unsigned Id = 0, E = F.numVariables(); Id != E; ++Id) {
    unsigned Root = Webs.find(Id);
    Variable *V = F.variable(Id);
    if (!Rep[Root]) {
      Rep[Root] = V;
      if (Webs.setSize(Root) > 1)
        ++NumWebs;
    } else if (F.isParam(V)) {
      assert(!F.isParam(Rep[Root]) && "two params in one phi web");
      Rep[Root] = V;
    }
  }
  auto RepOf = [&](Variable *V) { return Rep[Webs.find(V->id())]; };

  for (const auto &B : F.blocks()) {
    for (const auto &I : B->insts()) {
      I->forEachUse([&](Operand &O) { O.setVar(RepOf(O.getVar())); });
      if (Variable *Def = I->getDef())
        I->setDef(RepOf(Def));
    }
    B->erasePhisIf([](const Instruction &) { return true; });
  }
  return NumWebs;
}

namespace {

/// One copy instruction plus the loop depth of its block, for the
/// innermost-first ordering heuristic (Section 4.3).
struct CopySite {
  Instruction *Inst;
  unsigned Depth;
};

} // namespace

BriggsStats fcc::coalesceCopiesBriggs(Function &F,
                                      const BriggsOptions &Opts) {
  assert(F.phiCount() == 0 && "identify live ranges before coalescing");
  BriggsStats Stats;

  // Loop depths do not change across iterations (the CFG is never edited).
  DominatorTree DT(F);
  LoopInfo LI(DT);

  while (true) {
    ++Stats.Iterations;

    // Collect the surviving copies, innermost loops first.
    std::vector<CopySite> Copies;
    for (const auto &B : F.blocks())
      for (const auto &I : B->insts())
        if (I->isCopy() && I->getDef() != I->getOperand(0).getVar())
          Copies.push_back({I, LI.loopDepth(B.get())});
    if (Copies.empty())
      break;
    std::stable_sort(Copies.begin(), Copies.end(),
                     [](const CopySite &A, const CopySite &B) {
                       return A.Depth > B.Depth;
                     });

    // The classic variant builds over every name each pass; the improved
    // one restricts the rebuilt graph to names involved in copies. The
    // liveness recomputation is part of each pass's graph-build cost.
    std::optional<Liveness> LV;
    std::vector<Variable *> CopyNames;
    std::optional<InterferenceGraph> GraphStorage;
    {
      PhaseScope P(Opts.Instr, "briggs.ig-build", "coalesce");
      LV.emplace(F);
      InterferenceGraph::BuildOptions BuildOpts;
      if (Opts.Improved) {
        std::vector<bool> Seen(F.numVariables(), false);
        for (const CopySite &C : Copies)
          for (Variable *V :
               {C.Inst->getDef(), C.Inst->getOperand(0).getVar()})
            if (!Seen[V->id()]) {
              Seen[V->id()] = true;
              CopyNames.push_back(V);
            }
        BuildOpts.Restrict = &CopyNames;
      }
      GraphStorage.emplace(F, *LV, BuildOpts);
    }
    InterferenceGraph &Graph = *GraphStorage;
    Stats.GraphBytesPerPass.push_back(Graph.bytes());
    Stats.PeakBytes = std::max(
        Stats.PeakBytes, Graph.bytes() + LV->bytes() +
                             Copies.capacity() * sizeof(CopySite) +
                             CopyNames.capacity() * sizeof(Variable *));
    PhaseScope PassScope(Opts.Instr, "briggs.coalesce-pass", "coalesce");

    // Coalesce every copy whose endpoints do not interfere, folding the
    // merged node's edges conservatively so later decisions in this pass
    // stay sound (the rebuild next pass restores precision).
    UnionFind Merged(F.numVariables());
    std::vector<Variable *> Rep(F.numVariables(), nullptr);
    for (const auto &V : F.variables())
      Rep[V->id()] = V;
    auto RepOf = [&](Variable *V) { return Rep[Merged.find(V->id())]; };

    unsigned CoalescedThisPass = 0;
    for (const CopySite &C : Copies) {
      Variable *D = RepOf(C.Inst->getDef());
      Variable *S = RepOf(C.Inst->getOperand(0).getVar());
      if (D == S) {
        ++CoalescedThisPass; // Became a self-copy via earlier merges.
        continue;
      }
      if (Graph.interfere(D, S))
        continue;
      // A parameter must stay the name of its merged range: the incoming
      // value lives there and no definition can be renamed to move it.
      // Two parameters never coalesce (they always interfere). The edges
      // must fold into the surviving node — later queries in this pass go
      // through the representative's row.
      assert(!(F.isParam(D) && F.isParam(S)) && "params interfere pairwise");
      Variable *Keep = F.isParam(S) ? S : D;
      Variable *Gone = Keep == S ? D : S;
      Graph.mergeInto(Keep, Gone);
      unsigned Root = Merged.unite(D->id(), S->id());
      Rep[Root] = Keep;
      ++CoalescedThisPass;
    }

    if (CoalescedThisPass == 0)
      break;

    // Rewrite the function in the merged namespace and drop self-copies.
    for (const auto &B : F.blocks()) {
      for (const auto &I : B->insts()) {
        I->forEachUse([&](Operand &O) { O.setVar(RepOf(O.getVar())); });
        if (Variable *Def = I->getDef())
          I->setDef(RepOf(Def));
      }
      Stats.CopiesCoalesced += B->eraseInstsIf([](const Instruction &I) {
        return I.isCopy() && I.getDef() == I.getOperand(0).getVar();
      });
    }
  }
  if (RecordList *R = recordsOf(Opts.Instr)) {
    R->bump("briggs.copies-coalesced", Stats.CopiesCoalesced);
    R->bump("briggs.passes", Stats.Iterations);
  }
  return Stats;
}
