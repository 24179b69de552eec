//===- analysis/DominanceFrontier.h - Cytron's DF ---------------*- C++ -*-===//
///
/// \file
/// Dominance frontiers for SSA construction (Cytron et al., TOPLAS 1991),
/// computed with the Cooper–Harvey–Kennedy join-walk: for every join block J
/// and predecessor P, every block on the idom-chain from P up to (but not
/// including) idom(J) has J in its frontier. Over the postdominator tree and
/// the successors, the same walk yields the reverse frontiers, which are
/// control dependence: frontier(Y) lists the branches Y depends on.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_ANALYSIS_DOMINANCEFRONTIER_H
#define FCC_ANALYSIS_DOMINANCEFRONTIER_H

#include "analysis/DominatorTree.h"
#include <cstddef>
#include <vector>

namespace fcc {

/// Per-block dominance frontier sets (sorted by block id, duplicate free).
class DominanceFrontier {
public:
  explicit DominanceFrontier(const DominatorTree &DT);

  /// Reverse dominance frontiers of \p F over the immediate postdominators
  /// \p IPdom, as computePostDominators fills them (null: the virtual exit).
  DominanceFrontier(const Function &F, const std::vector<BasicBlock *> &IPdom);

  /// Frontier of \p B, ordered by block id.
  const std::vector<BasicBlock *> &frontier(const BasicBlock *B) const;

  size_t bytes() const;

private:
  std::vector<std::vector<BasicBlock *>> Frontiers; // indexed by block id
};

} // namespace fcc

#endif // FCC_ANALYSIS_DOMINANCEFRONTIER_H
