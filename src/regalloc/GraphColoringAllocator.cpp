//===- regalloc/GraphColoringAllocator.cpp --------------------------------===//

#include "regalloc/GraphColoringAllocator.h"

#include "analysis/DominatorTree.h"
#include "analysis/Liveness.h"
#include "analysis/LoopInfo.h"
#include "baseline/InterferenceGraph.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "regalloc/MachineModel.h"

#include <algorithm>

using namespace fcc;

RegAllocResult fcc::allocateRegisters(const Function &F,
                                      const RegAllocOptions &Opts) {
  assert(F.phiCount() == 0 && "allocate after SSA destruction");
  const MachineModel &MM = Opts.Machine;
  unsigned N = F.numVariables();
  unsigned NumClasses = static_cast<unsigned>(MM.Classes.size());

  auto Flagged = [](const std::vector<bool> *Flags, unsigned Id) {
    return Flags && Id < Flags->size() && (*Flags)[Id];
  };

  // The coloring universe: every variable except the stack-resident ones,
  // which hold no register and must not contribute interference (notably
  // not the calling convention's pairwise parameter edges).
  std::vector<Variable *> Nodes;
  Nodes.reserve(N);
  for (const auto &V : F.variables())
    if (!Flagged(Opts.StackResident, V->id()))
      Nodes.push_back(V.get());

  Liveness LV(F);
  InterferenceGraph::BuildOptions BuildOpts;
  BuildOpts.BuildAdjacencyLists = true;
  BuildOpts.Restrict = &Nodes;
  InterferenceGraph Graph(F, LV, BuildOpts);

  RegAllocResult Result;
  Result.ClassOf = classifyVariables(F, MM);
  std::vector<unsigned> ClassK(NumClasses), ClassBase(NumClasses);
  for (unsigned C = 0; C != NumClasses; ++C) {
    ClassK[C] = MM.Classes[C].NumRegisters;
    ClassBase[C] = MM.classBase(C);
  }

  // Spill costs: uses and defs weighted 10^depth, Chaitin's classic metric.
  DominatorTree DT(F);
  LoopInfo LI(DT);
  std::vector<double> Cost(N, 0.0);
  for (const auto &B : F.blocks()) {
    double Weight = 1.0;
    for (unsigned D = LI.loopDepth(B.get()); D != 0; --D)
      Weight *= 10.0;
    for (const auto &I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) { Cost[V->id()] += Weight; });
      if (Variable *Def = I->getDef())
        Cost[Def->id()] += Weight;
    }
  }

  // Only same-class neighbors compete for colors: classes own disjoint
  // global index ranges, so a cross-class edge never constrains a color
  // choice. Degrees below are therefore same-class degrees.
  auto SameClassDegree = [&](const Variable *V) {
    unsigned Deg = 0;
    for (unsigned Neighbor : Graph.neighbors(V))
      if (Result.ClassOf[Graph.nodeVariable(Neighbor)->id()] ==
          Result.ClassOf[V->id()])
        ++Deg;
    return Deg;
  };

  // Simplify: peel nodes whose same-class degree is below their class's
  // bank size; when stuck, push the cheapest (cost / degree) candidate
  // optimistically.
  std::vector<unsigned> CurDegree(N, 0);
  std::vector<bool> OnStack(N, false);
  for (const Variable *V : Nodes)
    CurDegree[V->id()] = SameClassDegree(V);

  std::vector<const Variable *> Stack;
  Stack.reserve(Nodes.size());
  unsigned RemainingNodes = static_cast<unsigned>(Nodes.size());
  while (RemainingNodes != 0) {
    const Variable *Picked = nullptr;
    // Prefer any trivially colorable node (deterministic: lowest id).
    for (const Variable *V : Nodes)
      if (!OnStack[V->id()] &&
          CurDegree[V->id()] < ClassK[Result.ClassOf[V->id()]]) {
        Picked = V;
        break;
      }
    if (!Picked) {
      // Blocked: choose the best spill candidate but push it anyway —
      // Briggs's optimism defers the decision to select. Dissolved spill
      // machinery (InfiniteCost) is only ever picked when nothing else
      // remains: re-spilling it cannot reduce interference.
      bool BestInfinite = true;
      double Best = 0.0;
      for (const Variable *V : Nodes) {
        if (OnStack[V->id()])
          continue;
        bool Infinite = Flagged(Opts.InfiniteCost, V->id());
        double Ratio = Cost[V->id()] / (CurDegree[V->id()] + 1.0);
        if (!Picked || (BestInfinite && !Infinite) ||
            (BestInfinite == Infinite && Ratio < Best)) {
          Picked = V;
          Best = Ratio;
          BestInfinite = Infinite;
        }
      }
    }
    OnStack[Picked->id()] = true;
    Stack.push_back(Picked);
    --RemainingNodes;
    for (unsigned Neighbor : Graph.neighbors(Picked)) {
      unsigned Id = Graph.nodeVariable(Neighbor)->id();
      if (!OnStack[Id] && CurDegree[Id] > 0 &&
          Result.ClassOf[Id] == Result.ClassOf[Picked->id()])
        --CurDegree[Id];
    }
  }

  // Select: pop and color against already-colored neighbors, inside the
  // node's class range.
  Result.RegisterOf.assign(N, -1);
  std::vector<bool> UsedColor(MM.totalRegisters(), false);
  while (!Stack.empty()) {
    const Variable *V = Stack.back();
    Stack.pop_back();
    std::fill(UsedColor.begin(), UsedColor.end(), false);
    for (unsigned Neighbor : Graph.neighbors(V)) {
      int Reg = Result.RegisterOf[Graph.nodeVariable(Neighbor)->id()];
      if (Reg >= 0)
        UsedColor[static_cast<unsigned>(Reg)] = true;
    }
    unsigned C = Result.ClassOf[V->id()];
    int Free = -1;
    for (unsigned R = ClassBase[C], E = ClassBase[C] + ClassK[C]; R != E; ++R)
      if (!UsedColor[R]) {
        Free = static_cast<int>(R);
        break;
      }
    if (Free < 0) {
      Result.Spilled.push_back(V);
      continue;
    }
    Result.RegisterOf[V->id()] = Free;
  }

  // Distinct registers in the (possibly partial) assignment — see the
  // RegAllocResult contract in the header.
  std::vector<bool> Seen(MM.totalRegisters(), false);
  for (int Reg : Result.RegisterOf)
    if (Reg >= 0 && !Seen[static_cast<unsigned>(Reg)]) {
      Seen[static_cast<unsigned>(Reg)] = true;
      ++Result.RegistersUsed;
    }
  return Result;
}
