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
#include <functional>
#include <queue>
#include <tuple>

using namespace fcc;

RegAllocResult fcc::allocateRegisters(const Function &F,
                                      const RegAllocOptions &Opts) {
  DominatorTree DT(F);
  LoopInfo LI(DT);
  std::vector<unsigned> LoopDepth(F.numBlocks());
  for (const auto &B : F.blocks())
    LoopDepth[B->id()] = LI.loopDepth(B.get());
  return allocateRegisters(F, Opts, UpwardExposedLiveness(F), LoopDepth);
}

RegAllocResult fcc::allocateRegisters(const Function &F,
                                      const RegAllocOptions &Opts,
                                      const UpwardExposedLiveness &LV,
                                      const std::vector<unsigned> &LoopDepth) {
  assert(F.phiCount() == 0 && "allocate after SSA destruction");
  const MachineModel &MM = Opts.Machine;
  unsigned N = F.numVariables();
  unsigned NumClasses = static_cast<unsigned>(MM.Classes.size());

  auto Flagged = [](const std::vector<bool> *Flags, unsigned Id) {
    return Flags && Id < Flags->size() && (*Flags)[Id];
  };

  // Spill costs: uses and defs weighted 10^depth, Chaitin's classic metric.
  // Every weight is at least 1, so a positive cost marks a name the code
  // defines or uses.
  std::vector<double> Cost(N, 0.0);
  for (const auto &B : F.blocks()) {
    double Weight = 1.0;
    for (unsigned D = LoopDepth[B->id()]; D != 0; --D)
      Weight *= 10.0;
    for (const Instruction *I : B->insts()) {
      I->forEachUsedVar([&](Variable *V) { Cost[V->id()] += Weight; });
      if (Variable *Def = I->getDef())
        Cost[Def->id()] += Weight;
    }
  }

  // The coloring universe, in id order: the names the code defines or
  // uses, plus the parameters, except the stack-resident ones, which hold
  // no register and must not contribute interference (notably not the
  // calling convention's pairwise parameter edges). A name SSA
  // construction or coalescing removed from the code gets no register.
  std::vector<bool> IsParam(N, false);
  for (const Variable *P : F.params())
    IsParam[P->id()] = true;
  std::vector<Variable *> Nodes;
  Nodes.reserve(N);
  for (Variable *V : F.variables())
    if ((Cost[V->id()] > 0 || IsParam[V->id()]) &&
        !Flagged(Opts.StackResident, V->id()))
      Nodes.push_back(V);

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

  // Simplify: peel nodes whose same-class degree is below their class's
  // bank size, lowest position in Nodes first; when stuck, push the
  // cheapest (cost / degree) candidate optimistically. Graph node indices
  // are positions in Nodes (the restricted universe), so simplify works in
  // positions. Only same-class neighbors compete for colors: classes own
  // disjoint global index ranges, so a cross-class edge never constrains a
  // color choice. Degrees below are therefore same-class degrees.
  const unsigned NumNodes = static_cast<unsigned>(Nodes.size());
  std::vector<unsigned> ClassAt(NumNodes);
  for (unsigned P = 0; P != NumNodes; ++P) {
    assert(Graph.nodeVariable(P) == Nodes[P] && "node index is not position");
    ClassAt[P] = Result.ClassOf[Nodes[P]->id()];
  }
  std::vector<unsigned> CurDegree(NumNodes, 0);
  std::vector<unsigned char> OnStack(NumNodes, 0);
  // Trivially colorable nodes, lowest position on top. Degrees only fall,
  // so a node enters once, when its degree drops below its bank size, and
  // stays colorable until picked.
  std::priority_queue<unsigned, std::vector<unsigned>, std::greater<>>
      Colorable;
  for (unsigned P = 0; P != NumNodes; ++P) {
    for (unsigned Neighbor : Graph.neighborsOf(P))
      CurDegree[P] += ClassAt[Neighbor] == ClassAt[P];
    if (CurDegree[P] < ClassK[ClassAt[P]])
      Colorable.push(P);
  }

  // Blocked picks take the least (InfiniteCost, cost / (degree + 1),
  // position). Dissolved spill machinery (InfiniteCost) is only ever
  // picked when nothing else remains: re-spilling it cannot reduce
  // interference. The heap is lazy and built at the first blocked pick:
  // keys only rise as degrees fall, so a top keyed at a stale degree is
  // re-keyed and pushed back, and a top keyed at its current degree is the
  // true minimum.
  struct Candidate {
    bool Infinite;
    double Ratio;
    unsigned Pos;
    unsigned Degree; // CurDegree[Pos] when keyed.
  };
  auto Later = [](const Candidate &A, const Candidate &B) {
    return std::tie(A.Infinite, A.Ratio, A.Pos) >
           std::tie(B.Infinite, B.Ratio, B.Pos);
  };
  auto KeyOf = [&](unsigned P) {
    unsigned Id = Nodes[P]->id();
    return Candidate{Flagged(Opts.InfiniteCost, Id),
                     Cost[Id] / (CurDegree[P] + 1.0), P, CurDegree[P]};
  };
  std::vector<Candidate> Blocked;
  bool BlockedBuilt = false;
  auto PickBlocked = [&] {
    if (!BlockedBuilt) {
      BlockedBuilt = true;
      for (unsigned P = 0; P != NumNodes; ++P)
        if (!OnStack[P])
          Blocked.push_back(KeyOf(P));
      std::make_heap(Blocked.begin(), Blocked.end(), Later);
    }
    for (;;) {
      std::pop_heap(Blocked.begin(), Blocked.end(), Later);
      Candidate Top = Blocked.back();
      Blocked.pop_back();
      if (OnStack[Top.Pos])
        continue;
      if (Top.Degree == CurDegree[Top.Pos])
        return Top.Pos;
      Blocked.push_back(KeyOf(Top.Pos));
      std::push_heap(Blocked.begin(), Blocked.end(), Later);
    }
  };

  std::vector<unsigned> Stack;
  Stack.reserve(NumNodes);
  while (Stack.size() != NumNodes) {
    unsigned Picked = 0;
    if (Colorable.empty()) {
      // Blocked: push the best spill candidate anyway — Briggs's optimism
      // defers the decision to select.
      Picked = PickBlocked();
    } else {
      Picked = Colorable.top();
      Colorable.pop();
    }
    OnStack[Picked] = 1;
    Stack.push_back(Picked);
    unsigned C = ClassAt[Picked];
    for (unsigned Neighbor : Graph.neighborsOf(Picked))
      if (!OnStack[Neighbor] && CurDegree[Neighbor] > 0 &&
          ClassAt[Neighbor] == C && --CurDegree[Neighbor] + 1 == ClassK[C])
        Colorable.push(Neighbor);
  }

  // Select: pop and color against already-colored neighbors, inside the
  // node's class range, with each position's register in RegAt.
  std::vector<int> RegAt(NumNodes, -1);
  std::vector<unsigned char> UsedColor(MM.totalRegisters(), 0);
  while (!Stack.empty()) {
    unsigned P = Stack.back();
    Stack.pop_back();
    std::fill(UsedColor.begin(), UsedColor.end(), 0);
    for (unsigned Neighbor : Graph.neighborsOf(P))
      if (RegAt[Neighbor] >= 0)
        UsedColor[static_cast<unsigned>(RegAt[Neighbor])] = 1;
    unsigned C = ClassAt[P];
    for (unsigned R = ClassBase[C], E = ClassBase[C] + ClassK[C]; R != E; ++R)
      if (!UsedColor[R]) {
        RegAt[P] = static_cast<int>(R);
        break;
      }
    if (RegAt[P] < 0)
      Result.Spilled.push_back(Nodes[P]);
  }
  Result.RegisterOf.assign(N, -1);
  for (unsigned P = 0; P != NumNodes; ++P)
    Result.RegisterOf[Nodes[P]->id()] = RegAt[P];

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
