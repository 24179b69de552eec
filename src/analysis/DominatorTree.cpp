//===- analysis/DominatorTree.cpp -----------------------------------------===//
//
// The dominator builder. One iterative depth-first search over a rooted flow
// graph feeds semidominators by link-eval disjoint set union (Lengauer-Tarjan
// step 2) and immediate dominators by the SemiNCA derivation; the
// Cooper-Harvey-Kennedy fixed point ("A Simple, Fast Dominance Algorithm")
// runs off the same search when asked for by name. DominatorTree then adds
// the depth-first numbering due to Tarjan that the paper's dominance-forest
// construction depends on (Section 3.2).
//
//===----------------------------------------------------------------------===//

#include "analysis/DominatorTree.h"

#include "ir/BasicBlock.h"
#include "ir/Function.h"
#include "support/UnionFind.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

using namespace fcc;

namespace {

/// The CFG rooted at its entry; a node is a block.
struct ForwardCFG {
  const Function &F;

  unsigned size() const { return F.numBlocks(); }
  BasicBlock *root() const { return F.entry(); }
  unsigned index(const BasicBlock *B) const { return B->id(); }
  std::span<BasicBlock *const> succs(const BasicBlock *B) const {
    return B->succs();
  }
  template <typename Fn> void forEachPred(const BasicBlock *B, Fn Visit) const {
    for (BasicBlock *P : B->preds())
      Visit(P);
  }
};

/// The reverse CFG rooted at a virtual exit, the null node (index
/// numBlocks()), whose successors are the return blocks. The builder never
/// asks for the root's predecessors.
struct ReverseCFG {
  const Function &F;
  std::vector<BasicBlock *> Returns;

  unsigned size() const { return F.numBlocks() + 1; }
  BasicBlock *root() const { return nullptr; }
  unsigned index(const BasicBlock *B) const {
    return B ? B->id() : F.numBlocks();
  }
  std::span<BasicBlock *const> succs(const BasicBlock *B) const {
    return B ? B->preds() : Returns;
  }
  template <typename Fn> void forEachPred(const BasicBlock *B, Fn Visit) const {
    if (B->terminator()->opcode() == Opcode::Ret)
      Visit(nullptr);
    for (BasicBlock *S : B->succs())
      Visit(S);
  }
};

/// Immediate dominators over flow graph \p G: on success Idom[G.index(X)]
/// is X's immediate dominator (the root's entry is null) and \p Postorder
/// lists the nodes in DFS postorder. Returns false when the search misses a
/// node; \p Postorder then holds only the nodes it reached. The graph view
/// is a template parameter so the forward walk compiles to direct block
/// accesses.
template <typename Graph>
bool buildDominators(const Graph &G, DomAlgorithm Algo,
                     std::vector<BasicBlock *> &Postorder,
                     std::vector<BasicBlock *> &Idom) {
  const unsigned N = G.size();
  constexpr unsigned Unseen = ~0u;

  // One DFS (iterative; generator CFGs can be deep): the preorder numbering
  // and DFS-tree parents feed the semidominator computation, the postorder
  // drives the CHK fixed point, and a short postorder is how nodes the root
  // cannot reach are detected.
  std::vector<BasicBlock *> ByDfs; // Nodes in DFS preorder.
  ByDfs.reserve(N);
  std::vector<unsigned> DfsNum(N, Unseen); // Node index -> preorder number.
  std::vector<unsigned> ParentPre(N, 0);   // Preorder -> parent's preorder.
  Postorder.reserve(N);
  {
    // Stack of (node, next successor index to visit).
    std::vector<std::pair<BasicBlock *, unsigned>> Stack;
    Stack.push_back({G.root(), 0});
    DfsNum[G.index(G.root())] = 0;
    ByDfs.push_back(G.root());
    while (!Stack.empty()) {
      auto &[B, NextSucc] = Stack.back();
      const auto &Succs = G.succs(B);
      if (NextSucc < Succs.size()) {
        BasicBlock *S = Succs[NextSucc++];
        unsigned &Num = DfsNum[G.index(S)];
        if (Num == Unseen) {
          Num = static_cast<unsigned>(ByDfs.size());
          ParentPre[Num] = DfsNum[G.index(B)];
          ByDfs.push_back(S);
          Stack.push_back({S, 0});
        }
        continue;
      }
      Postorder.push_back(B);
      Stack.pop_back();
    }
  }
  if (Postorder.size() != N)
    return false;
  Idom.assign(N, nullptr);

  if (Algo == DomAlgorithm::DSU) {
    // Semidominators, in preorder-number space and decreasing preorder. For
    // each predecessor v of w the candidate is v itself when v was not yet
    // processed (preorder below w: a tree or forward edge, sdom[v] still the
    // identity) and otherwise the minimum semidominator on the processed DFS
    // path above v, which is exactly what eval() answers; linking w under
    // its DFS parent afterwards extends those paths. Keys are final when
    // linked, the precondition the forest documents.
    std::vector<unsigned> Sdom(N);
    std::iota(Sdom.begin(), Sdom.end(), 0u);
    LinkEvalForest Forest(N, Sdom.data());
    for (unsigned W = N; W-- > 1;) {
      G.forEachPred(ByDfs[W], [&](const BasicBlock *P) {
        Sdom[W] = std::min(Sdom[W], Sdom[Forest.eval(DfsNum[G.index(P)])]);
      });
      Forest.link(W, ParentPre[W]);
    }

    // SemiNCA: idom(w) is the nearest common ancestor of w's DFS parent and
    // sdom(w) in the dominator tree. Walking vertices in increasing preorder
    // makes every idom met on the climb final, and the climb compares plain
    // preorder numbers because an ancestor always has the smaller one.
    std::vector<unsigned> IdomPre(N, 0);
    for (unsigned W = 1; W < N; ++W) {
      unsigned U = ParentPre[W];
      while (U > Sdom[W])
        U = IdomPre[U];
      IdomPre[W] = U;
      Idom[G.index(ByDfs[W])] = ByDfs[U];
    }
    return true;
  }

  // Cooper-Harvey-Kennedy fixed point in postorder-number space: a
  // dominator finishes after every node it dominates, so Intersect climbs
  // whichever finger has the smaller number. The root finishes last.
  constexpr unsigned Undef = ~0u;
  const unsigned Root = N - 1;
  std::vector<unsigned> PostNum(N);
  for (unsigned I = 0; I != N; ++I)
    PostNum[G.index(Postorder[I])] = I;
  std::vector<unsigned> IdomPost(N, Undef);
  IdomPost[Root] = Root; // Self-idom sentinel during iteration.
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (A < B)
        A = IdomPost[A];
      while (B < A)
        B = IdomPost[B];
    }
    return A;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (unsigned X = Root; X-- > 0;) { // Reverse postorder after the root.
      unsigned New = Undef;
      G.forEachPred(Postorder[X], [&](const BasicBlock *P) {
        unsigned PX = PostNum[G.index(P)];
        if (IdomPost[PX] != Undef) // Skip predecessors not yet processed.
          New = New == Undef ? PX : Intersect(New, PX);
      });
      assert(New != Undef && "reachable node with no processed predecessor");
      if (IdomPost[X] != New) {
        IdomPost[X] = New;
        Changed = true;
      }
    }
  }
  for (unsigned X = 0; X != Root; ++X)
    Idom[G.index(Postorder[X])] = Postorder[IdomPost[X]];
  return true;
}

} // namespace

unsigned DominatorTree::blockIndex(const BasicBlock *B) const {
  assert(B && B->getParent() == &F && "block from a different function");
  return B->id();
}

DominatorTree::DominatorTree(const Function &F, DomAlgorithm Algo) : F(F) {
  unsigned N = F.numBlocks();
  assert(N != 0 && "empty function");

  // Unreachable blocks break every invariant below (the RPO no longer
  // covers the function, the tree no longer spans it). The verifier rejects
  // them, but dominators are also built directly on unverified functions —
  // so enforce the precondition here, in release builds too, instead of
  // relying on an assert that compiles out.
  std::vector<BasicBlock *> Postorder;
  if (!buildDominators(ForwardCFG{F}, Algo, Postorder, Idom))
    throw std::invalid_argument(
        "dominators(@" + F.name() + "): " +
        std::to_string(N - Postorder.size()) +
        " block(s) unreachable from entry; the function does not verify");
  RPO.assign(Postorder.rbegin(), Postorder.rend());

  // Dominator-tree children, in RPO so numbering is deterministic.
  Children.assign(N, {});
  for (BasicBlock *B : RPO)
    if (BasicBlock *D = Idom[B->id()])
      Children[D->id()].push_back(B);

  // Tarjan numbering: preorder on the way down, max preorder of the subtree
  // on the way up.
  Preorder.assign(N, 0);
  MaxPreorder.assign(N, 0);
  PreorderBlocks.assign(N, nullptr);
  unsigned NextPre = 0;
  std::vector<std::pair<BasicBlock *, unsigned>> Stack;
  Stack.push_back({F.entry(), 0});
  Preorder[F.entry()->id()] = NextPre;
  PreorderBlocks[NextPre] = F.entry();
  ++NextPre;
  while (!Stack.empty()) {
    auto &[B, NextChild] = Stack.back();
    const auto &Kids = Children[B->id()];
    if (NextChild < Kids.size()) {
      BasicBlock *C = Kids[NextChild++];
      Preorder[C->id()] = NextPre;
      PreorderBlocks[NextPre] = C;
      ++NextPre;
      Stack.push_back({C, 0});
      continue;
    }
    MaxPreorder[B->id()] = NextPre - 1;
    Stack.pop_back();
  }
  assert(NextPre == N && "dominator tree does not span all blocks");
}

size_t DominatorTree::bytes() const {
  size_t Total = RPO.capacity() * sizeof(BasicBlock *) +
                 Idom.capacity() * sizeof(BasicBlock *) +
                 Preorder.capacity() * sizeof(unsigned) +
                 MaxPreorder.capacity() * sizeof(unsigned) +
                 PreorderBlocks.capacity() * sizeof(BasicBlock *);
  for (const auto &Kids : Children)
    Total += Kids.capacity() * sizeof(BasicBlock *);
  return Total;
}

bool fcc::computePostDominators(const Function &F,
                                std::vector<BasicBlock *> &IPdom,
                                DomAlgorithm Algo) {
  ReverseCFG G{F, {}};
  for (const auto &B : F.blocks())
    if (B->terminator()->opcode() == Opcode::Ret)
      G.Returns.push_back(B.get());
  std::vector<BasicBlock *> Postorder;
  if (!buildDominators(G, Algo, Postorder, IPdom))
    return false;
  IPdom.pop_back(); // The virtual exit's own entry.
  return true;
}
