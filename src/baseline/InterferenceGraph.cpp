//===- baseline/InterferenceGraph.cpp -------------------------------------===//

#include "baseline/InterferenceGraph.h"

#include "analysis/Liveness.h"
#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "ir/Variable.h"
#include "support/IndexSet.h"

#include <algorithm>

using namespace fcc;

InterferenceGraph::InterferenceGraph(const Function &F, const Liveness &LV,
                                     const BuildOptions &Opts) {
  build(F, Opts, [&](const BasicBlock *B, auto Seed) {
    LV.liveOut(B).forEach(Seed);
  });
}

InterferenceGraph::InterferenceGraph(const Function &F,
                                     const UpwardExposedLiveness &LV,
                                     const BuildOptions &Opts) {
  build(F, Opts, [&](const BasicBlock *B, auto Seed) {
    LV.forEachLiveOut(B, Seed);
  });
}

template <typename ForEachLiveOutFn>
void InterferenceGraph::build(const Function &F, const BuildOptions &Opts,
                              ForEachLiveOutFn ForEachLiveOut) {
  VarToNode.assign(F.numVariables(), -1);
  if (Opts.Restrict) {
    Universe = *Opts.Restrict;
  } else {
    Universe.reserve(F.numVariables());
    for (const auto &V : F.variables())
      Universe.push_back(V);
  }
  for (unsigned I = 0; I != Universe.size(); ++I) {
    assert(VarToNode[Universe[I]->id()] < 0 && "duplicate node");
    VarToNode[Universe[I]->id()] = static_cast<int>(I);
  }

  // The expensive step Section 4.1 talks about: clearing n^2/2 bits.
  const unsigned NumNodes = static_cast<unsigned>(Universe.size());
  Matrix.reset(NumNodes);
  HasAdjacency = Opts.BuildAdjacencyLists;

  // Chaitin's backward walk per block. A name that is not a node never
  // takes part in an edge, so the live set holds node indices only.
  auto NodeOf = [&](const Variable *V) { return VarToNode[V->id()]; };
  IndexSet Live(NumNodes);
  auto Interfere = [&](unsigned DefNode, int Except) {
    Live.forEach([&](unsigned Node) {
      if (static_cast<int>(Node) != Except)
        addEdge(DefNode, Node);
    });
  };
  // Definitions in parallel (parameters at the entry, phis at a block's
  // top): each interferes with what is live there and with the others.
  auto DefineInParallel = [&](unsigned Count, auto DefAt) {
    for (unsigned I = 0; I != Count; ++I)
      if (int Node = NodeOf(DefAt(I)); Node >= 0)
        Live.erase(static_cast<unsigned>(Node));
    for (unsigned I = 0; I != Count; ++I) {
      int DefNode = NodeOf(DefAt(I));
      if (DefNode < 0)
        continue;
      Interfere(static_cast<unsigned>(DefNode), -1);
      for (unsigned J = I + 1; J != Count; ++J)
        if (int Other = NodeOf(DefAt(J)); Other >= 0)
          addEdge(static_cast<unsigned>(DefNode),
                  static_cast<unsigned>(Other));
    }
  };
  for (const auto &B : F.blocks()) {
    Live.clear();
    ForEachLiveOut(B.get(), [&](unsigned Id) {
      if (int Node = VarToNode[Id]; Node >= 0)
        Live.insert(static_cast<unsigned>(Node));
    });

    for (auto It = B->insts().rbegin(), E = B->insts().rend(); It != E;
         ++It) {
      const Instruction &I = **It;
      if (int DefNode = I.getDef() ? NodeOf(I.getDef()) : -1; DefNode >= 0) {
        // Chaitin's copy refinement: d = copy s does not make d interfere
        // with s.
        Live.erase(static_cast<unsigned>(DefNode));
        Interfere(static_cast<unsigned>(DefNode),
                  I.isCopy() && I.getOperand(0).isVar()
                      ? NodeOf(I.getOperand(0).getVar())
                      : -1);
      }
      I.forEachUsedVar([&](const Variable *V) {
        if (int Node = NodeOf(V); Node >= 0)
          Live.insert(static_cast<unsigned>(Node));
      });
    }

    // Parameters are defined in parallel at the top of the entry block by
    // the calling convention: each interferes with whatever else is live
    // there, and they always interfere pairwise (they arrive in distinct
    // locations regardless of later uses).
    if (B.get() == F.entry()) {
      const auto &Params = F.params();
      DefineInParallel(static_cast<unsigned>(Params.size()),
                       [&](unsigned I) { return Params[I]; });
    }

    // Parallel phi definitions at the block top.
    const auto &Phis = B->phis();
    DefineInParallel(static_cast<unsigned>(Phis.size()),
                     [&](unsigned I) { return Phis[I]->getDef(); });
  }

  // Freeze the adjacency lists into CSR form. A stable counting pass over
  // the discovery-ordered edge list reproduces exactly the neighbor order
  // per-node push_back would have built.
  if (HasAdjacency) {
    AdjOffsets.assign(Universe.size() + 1, 0);
    for (const auto &E : EdgeScratch) {
      ++AdjOffsets[E.first + 1];
      ++AdjOffsets[E.second + 1];
    }
    for (unsigned I = 1; I <= Universe.size(); ++I)
      AdjOffsets[I] += AdjOffsets[I - 1];
    AdjStorage.resize(EdgeScratch.size() * 2);
    std::vector<unsigned> Cursor(AdjOffsets.begin(), AdjOffsets.end() - 1);
    for (const auto &E : EdgeScratch) {
      AdjStorage[Cursor[E.first]++] = E.second;
      AdjStorage[Cursor[E.second]++] = E.first;
    }
    std::vector<std::pair<unsigned, unsigned>>().swap(EdgeScratch);
  }
}

void InterferenceGraph::addEdge(unsigned A, unsigned B) {
  if (A == B || Matrix.test(A, B))
    return;
  Matrix.set(A, B);
  if (HasAdjacency)
    EdgeScratch.emplace_back(A, B);
}

unsigned InterferenceGraph::nodeIndex(const Variable *V) const {
  assert(V->id() < VarToNode.size() && VarToNode[V->id()] >= 0 &&
         "variable is not a node of this graph");
  return static_cast<unsigned>(VarToNode[V->id()]);
}

bool InterferenceGraph::interfere(const Variable *A,
                                  const Variable *B) const {
  return Matrix.test(nodeIndex(A), nodeIndex(B));
}

unsigned InterferenceGraph::degree(const Variable *V) const {
  assert(HasAdjacency && "adjacency lists were not built");
  unsigned Node = nodeIndex(V);
  return AdjOffsets[Node + 1] - AdjOffsets[Node];
}

InterferenceGraph::NeighborList
InterferenceGraph::neighborsOf(unsigned Node) const {
  assert(HasAdjacency && "adjacency lists were not built");
  return {AdjStorage.data() + AdjOffsets[Node],
          AdjOffsets[Node + 1] - AdjOffsets[Node]};
}

void InterferenceGraph::mergeInto(const Variable *A, const Variable *B) {
  assert(!HasAdjacency && "mergeInto cannot grow the frozen CSR adjacency");
  unsigned NA = nodeIndex(A), NB = nodeIndex(B);
  for (unsigned T = 0, E = numNodes(); T != E; ++T)
    if (T != NA && Matrix.test(NB, T))
      addEdge(NA, T);
}

size_t InterferenceGraph::bytes() const {
  return Matrix.bytes() + VarToNode.capacity() * sizeof(int) +
         Universe.capacity() * sizeof(Variable *) +
         AdjOffsets.capacity() * sizeof(unsigned) +
         AdjStorage.capacity() * sizeof(unsigned);
}
