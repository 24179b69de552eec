//===- analysis/DominatorTree.h - Dominance information ---------*- C++ -*-===//
///
/// \file
/// Dominator tree decorated with the Tarjan preorder / max-preorder
/// numbering the paper's Figure 1 requires: `preorder(a) <= preorder(b) <=
/// maxPreorder(a)` answers "does a dominate b?" in constant time, and the
/// numbering is computed once per function regardless of how many dominance
/// forests are built over it.
///
/// One builder computes every dominator tree in the library: an iterative
/// depth-first search over a rooted flow graph (the CFG from its entry, or
/// the reverse CFG from a virtual exit for computePostDominators) feeds the
/// near-linear semidominator / SemiNCA scheme of "Finding Dominators via
/// Disjoint Set Union". The Cooper–Harvey–Kennedy iterative fixed point
/// runs off the same search only where DomAlgorithm::CHK is named: it is
/// the reference the tests and the differential oracle check DSU against.
/// Dominator trees are unique, so every table below is bit-identical
/// across the two.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_ANALYSIS_DOMINATORTREE_H
#define FCC_ANALYSIS_DOMINATORTREE_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace fcc {

class BasicBlock;
class Function;

/// Which algorithm computes the immediate dominators. Both yield the same
/// tree; see the file comment.
enum class DomAlgorithm : unsigned char {
  CHK, ///< Cooper–Harvey–Kennedy iterative fixed point (the reference).
  DSU, ///< Semidominators via link-eval disjoint set union + SemiNCA.
};

/// Immediate-dominator tree over a function's CFG. The function must verify;
/// in particular every block must be reachable, and that precondition is
/// checked: construction throws std::invalid_argument on a CFG with
/// unreachable blocks (a corrupt RPO would silently poison every downstream
/// pass, so this holds in release builds too).
class DominatorTree {
public:
  explicit DominatorTree(const Function &F,
                         DomAlgorithm Algo = DomAlgorithm::DSU);

  const Function &function() const { return F; }

  /// Immediate dominator; nullptr for the entry block.
  BasicBlock *idom(const BasicBlock *B) const {
    return Idom[blockIndex(B)];
  }

  /// Dominator-tree children of \p B.
  const std::vector<BasicBlock *> &children(const BasicBlock *B) const {
    return Children[blockIndex(B)];
  }

  /// True when \p A dominates \p B (reflexively).
  bool dominates(const BasicBlock *A, const BasicBlock *B) const {
    unsigned PA = Preorder[blockIndex(A)];
    return PA <= Preorder[blockIndex(B)] &&
           Preorder[blockIndex(B)] <= MaxPreorder[blockIndex(A)];
  }

  /// True when \p A dominates \p B and A != B.
  bool strictlyDominates(const BasicBlock *A, const BasicBlock *B) const {
    return A != B && dominates(A, B);
  }

  /// Tarjan preorder number of \p B in the dominator tree.
  unsigned preorder(const BasicBlock *B) const {
    return Preorder[blockIndex(B)];
  }

  /// Largest preorder number among \p B's dominator-tree descendants.
  unsigned maxPreorder(const BasicBlock *B) const {
    return MaxPreorder[blockIndex(B)];
  }

  /// Blocks in dominator-tree preorder (index = preorder number).
  const std::vector<BasicBlock *> &preorderBlocks() const {
    return PreorderBlocks;
  }

  /// Blocks in reverse postorder of the CFG (computed as a by-product).
  const std::vector<BasicBlock *> &reversePostorder() const { return RPO; }

  /// Bytes held by the tree's tables (for the memory experiments).
  size_t bytes() const;

private:
  unsigned blockIndex(const BasicBlock *B) const;

  const Function &F;
  std::vector<BasicBlock *> RPO;
  std::vector<BasicBlock *> Idom;     // indexed by block id
  std::vector<std::vector<BasicBlock *>> Children; // indexed by block id
  std::vector<unsigned> Preorder;     // indexed by block id
  std::vector<unsigned> MaxPreorder;  // indexed by block id
  std::vector<BasicBlock *> PreorderBlocks;
};

/// Immediate postdominators of \p F's blocks: the dominator builder run over
/// the reverse CFG, rooted at a virtual exit that every `ret` block flows
/// into. On success IPdom[block id] is the block's immediate postdominator,
/// or null when that is the virtual exit. Returns false when some block
/// cannot reach a return (an infinite loop), leaving IPdom unspecified.
bool computePostDominators(const Function &F, std::vector<BasicBlock *> &IPdom,
                           DomAlgorithm Algo = DomAlgorithm::DSU);

} // namespace fcc

#endif // FCC_ANALYSIS_DOMINATORTREE_H
