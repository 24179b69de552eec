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
  Matrix.reset(static_cast<unsigned>(Universe.size()));
  HasAdjacency = Opts.BuildAdjacencyLists;

  // Chaitin's backward walk per block.
  for (const auto &B : F.blocks()) {
    IndexSet Live(LV.liveOut(B.get()));

    for (auto It = B->insts().rbegin(), E = B->insts().rend(); It != E;
         ++It) {
      const Instruction &I = **It;
      if (const Variable *Def = I.getDef()) {
        Live.erase(Def->id());
        const Variable *CopySrc =
            I.isCopy() && I.getOperand(0).isVar() ? I.getOperand(0).getVar()
                                                  : nullptr;
        int DefNode = VarToNode[Def->id()];
        if (DefNode >= 0) {
          Live.forEach([&](unsigned Id) {
            const Variable *V = F.variable(Id);
            if (V == CopySrc)
              return;
            int Node = VarToNode[Id];
            if (Node >= 0)
              addEdge(static_cast<unsigned>(DefNode),
                      static_cast<unsigned>(Node));
          });
        }
      }
      I.forEachUsedVar([&](Variable *V) { Live.insert(V->id()); });
    }

    // Parameters are defined in parallel at the top of the entry block by
    // the calling convention: each interferes with whatever else is live
    // there, and they always interfere pairwise (they arrive in distinct
    // locations regardless of later uses).
    if (B.get() == F.entry()) {
      const auto &Params = F.params();
      for (const Variable *P : Params)
        Live.erase(P->id());
      for (unsigned PI = 0; PI != Params.size(); ++PI) {
        int DefNode = VarToNode[Params[PI]->id()];
        if (DefNode < 0)
          continue;
        Live.forEach([&](unsigned Id) {
          int Node = VarToNode[Id];
          if (Node >= 0)
            addEdge(static_cast<unsigned>(DefNode),
                    static_cast<unsigned>(Node));
        });
        for (unsigned PJ = PI + 1; PJ != Params.size(); ++PJ) {
          int Other = VarToNode[Params[PJ]->id()];
          if (Other >= 0)
            addEdge(static_cast<unsigned>(DefNode),
                    static_cast<unsigned>(Other));
        }
      }
    }

    // Parallel phi definitions at the block top.
    const auto &Phis = B->phis();
    if (Phis.empty())
      continue;
    for (const auto &Phi : Phis)
      Live.erase(Phi->getDef()->id());
    for (unsigned PI = 0; PI != Phis.size(); ++PI) {
      int DefNode = VarToNode[Phis[PI]->getDef()->id()];
      if (DefNode < 0)
        continue;
      Live.forEach([&](unsigned Id) {
        int Node = VarToNode[Id];
        if (Node >= 0)
          addEdge(static_cast<unsigned>(DefNode), static_cast<unsigned>(Node));
      });
      for (unsigned PJ = PI + 1; PJ != Phis.size(); ++PJ) {
        int Other = VarToNode[Phis[PJ]->getDef()->id()];
        if (Other >= 0)
          addEdge(static_cast<unsigned>(DefNode),
                  static_cast<unsigned>(Other));
      }
    }
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
InterferenceGraph::neighbors(const Variable *V) const {
  assert(HasAdjacency && "adjacency lists were not built");
  unsigned Node = nodeIndex(V);
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
