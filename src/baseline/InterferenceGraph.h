//===- baseline/InterferenceGraph.h - Chaitin's graph -----------*- C++ -*-===//
///
/// \file
/// The interference graph of Chaitin-style allocators: a triangular bit
/// matrix (plus optional adjacency lists for coloring) over live-range
/// names. Section 4.1 of the paper's experiments measures two builds:
///
///   - the classic build over *all* names (quadratic bits to clear), and
///   - the improved build restricted to copy-involved names through a
///     compact mapping array — identical answers for coalescing queries,
///     orders of magnitude less memory.
///
/// Both are the same code here, selected by BuildOptions::Restrict.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_BASELINE_INTERFERENCEGRAPH_H
#define FCC_BASELINE_INTERFERENCEGRAPH_H

#include "support/TriangularBitMatrix.h"
#include <cstddef>
#include <utility>
#include <vector>

namespace fcc {

class Function;
class Liveness;
class UpwardExposedLiveness;
class Variable;

/// Interference graph over a function's variables (live ranges).
class InterferenceGraph {
public:
  struct BuildOptions {
    /// When set, only these variables become graph nodes; queries about
    /// other variables assert. This is the Briggs* compact namespace.
    const std::vector<Variable *> *Restrict = nullptr;
    /// Also build adjacency lists (needed by the coloring allocator; the
    /// coalescer only needs the matrix).
    bool BuildAdjacencyLists = false;
  };

  /// Builds the graph from \p F's current code using \p LV. Chaitin's copy
  /// refinement applies: at `d = copy s`, d does not interfere with s.
  /// Phis, if present, define in parallel at their block's top.
  InterferenceGraph(const Function &F, const Liveness &LV,
                    const BuildOptions &Opts);
  InterferenceGraph(const Function &F, const Liveness &LV)
      : InterferenceGraph(F, LV, BuildOptions()) {}
  /// The same graph from the compact solve, which knows only the names
  /// live across some block boundary; every other name is live nowhere.
  InterferenceGraph(const Function &F, const UpwardExposedLiveness &LV,
                    const BuildOptions &Opts);

  /// Number of graph nodes (== restricted universe size, or all variables).
  unsigned numNodes() const { return Matrix.size(); }

  /// Interference query; both variables must be nodes.
  bool interfere(const Variable *A, const Variable *B) const;

  /// Degree of \p V (requires adjacency lists).
  unsigned degree(const Variable *V) const;

  /// A node's neighbor ids: a view into the CSR neighbor storage.
  struct NeighborList {
    const unsigned *Data = nullptr;
    unsigned Size = 0;
    const unsigned *begin() const { return Data; }
    const unsigned *end() const { return Data + Size; }
    unsigned size() const { return Size; }
  };

  /// Neighbors of the node with index \p Node, as node indices (requires
  /// adjacency lists), in the order the edges were discovered.
  NeighborList neighborsOf(unsigned Node) const;

  /// Variable for node index \p Node.
  Variable *nodeVariable(unsigned Node) const { return Universe[Node]; }

  /// Folds \p B's interferences into \p A (conservative update after
  /// coalescing the copy A = B, as Chaitin does between rebuilds). Only
  /// valid on matrix-only graphs: the frozen CSR adjacency cannot grow.
  void mergeInto(const Variable *A, const Variable *B);

  /// Number of interference pairs recorded.
  size_t edgeCount() const { return Matrix.count(); }

  /// Bytes of the matrix, mapping array and adjacency lists — the metric of
  /// the paper's Table 1.
  size_t bytes() const;

private:
  /// The one backward walk; \p ForEachLiveOut(B, Fn) calls Fn with the id
  /// of every variable live out of B.
  template <typename ForEachLiveOutFn>
  void build(const Function &F, const BuildOptions &Opts,
             ForEachLiveOutFn ForEachLiveOut);
  unsigned nodeIndex(const Variable *V) const;
  void addEdge(unsigned A, unsigned B);

  TriangularBitMatrix Matrix;
  std::vector<int> VarToNode;        // variable id -> node index or -1
  std::vector<Variable *> Universe;  // node index -> variable
  bool HasAdjacency = false;
  // Adjacency in CSR form: one offsets array plus one flat neighbor array
  // instead of a vector per node (two allocations total, Table 1's metric).
  // EdgeScratch records edges in discovery order during construction and is
  // released once the CSR arrays are frozen.
  std::vector<std::pair<unsigned, unsigned>> EdgeScratch;
  std::vector<unsigned> AdjOffsets;  // node -> start index, size n + 1
  std::vector<unsigned> AdjStorage;  // concatenated neighbor lists
};

} // namespace fcc

#endif // FCC_BASELINE_INTERFERENCEGRAPH_H
