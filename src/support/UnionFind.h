//===- support/UnionFind.h - Disjoint-set forest ----------------*- C++ -*-===//
//
// Part of the fastcoalesce project, an independent reproduction of
// "Fast Copy Coalescing and Live-Range Identification" (PLDI 2002).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Disjoint-set forest with union by size and path halving, the classic
/// O(n alpha(n)) structure the paper relies on for grouping SSA names joined
/// at phi-nodes (Section 3, Section 3.7).
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_UNIONFIND_H
#define FCC_SUPPORT_UNIONFIND_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcc {

/// Disjoint-set forest over dense unsigned ids [0, size()).
class UnionFind {
public:
  UnionFind() = default;
  explicit UnionFind(unsigned NumElements) { grow(NumElements); }

  /// Extends the universe to \p NumElements singleton sets. Existing sets are
  /// preserved; shrinking is not supported.
  void grow(unsigned NumElements);

  /// Number of elements in the universe.
  unsigned size() const { return static_cast<unsigned>(Parent.size()); }

  /// Returns the canonical representative of \p X's set, compressing the
  /// path by halving as it walks.
  unsigned find(unsigned X);

  /// Const lookup without path compression.
  unsigned findConst(unsigned X) const;

  /// Merges the sets of \p A and \p B; returns the surviving root. The
  /// larger set's root wins so tree depth stays logarithmic before
  /// compression.
  unsigned unite(unsigned A, unsigned B);

  /// Number of elements in \p X's set.
  unsigned setSize(unsigned X) { return Size[find(X)]; }

  /// Bytes of memory held by the structure (for the paper's memory tables).
  size_t bytes() const {
    return Parent.capacity() * sizeof(unsigned) +
           Size.capacity() * sizeof(unsigned);
  }

private:
  std::vector<unsigned> Parent;
  std::vector<unsigned> Size;
};

/// Tarjan's link-eval disjoint-set forest, the structure behind the
/// near-linear dominator computation (see analysis/DominatorTree.cpp). It
/// differs from UnionFind in two ways: links are directed (link() attaches a
/// tree root under an arbitrary parent, preserving ancestry), and every
/// vertex carries a label so eval() answers "which vertex on the linked path
/// from my tree's root (exclusive) down to me has the minimum key?" — with
/// path compression folding the answer into the labels as it walks. Keys are
/// read through a caller-owned array at comparison time; a vertex's key must
/// be final before the vertex is linked (the semidominator computation
/// guarantees exactly that).
///
/// This is the "simple" eval: path compression without balancing, giving
/// O(m log n) worst case and near-linear behaviour in practice — the same
/// trade every production SemiNCA implementation makes.
class LinkEvalForest {
public:
  /// \p Keys must stay valid (and at least \p NumVertices long) for the
  /// forest's lifetime.
  LinkEvalForest(unsigned NumVertices, const unsigned *Keys);

  /// Attaches tree root \p V under \p Parent. \p V must not already be
  /// linked; \p V's key must not change afterwards.
  void link(unsigned V, unsigned Parent) {
    assert(V < Ancestor.size() && Parent < Ancestor.size() && "out of range");
    assert(Ancestor[V] == kRoot && "vertex linked twice");
    Ancestor[V] = Parent;
  }

  /// For an unlinked \p V, returns \p V itself. For a linked \p V, returns
  /// the minimum-key vertex on the path from \p V's current tree root
  /// (exclusive) down to \p V (inclusive), compressing the path.
  unsigned eval(unsigned V);

  /// Bytes of memory held by the structure (for the memory experiments).
  size_t bytes() const {
    return Ancestor.capacity() * sizeof(unsigned) +
           Label.capacity() * sizeof(unsigned) +
           Path.capacity() * sizeof(unsigned);
  }

private:
  static constexpr unsigned kRoot = ~0u;

  std::vector<unsigned> Ancestor; ///< kRoot marks an unlinked tree root.
  std::vector<unsigned> Label;    ///< Min-key vertex on the compressed path.
  std::vector<unsigned> Path;     ///< Scratch for iterative compression.
  const unsigned *Keys;
};

} // namespace fcc

#endif // FCC_SUPPORT_UNIONFIND_H
