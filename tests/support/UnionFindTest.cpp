//===- tests/support/UnionFindTest.cpp ------------------------------------===//

#include "support/UnionFind.h"

#include "support/SplitMix64.h"
#include <gtest/gtest.h>
#include <map>

using namespace fcc;

TEST(UnionFindTest, SingletonsAreTheirOwnRoots) {
  UnionFind UF(5);
  for (unsigned I = 0; I != 5; ++I) {
    EXPECT_EQ(UF.find(I), I);
    EXPECT_EQ(UF.setSize(I), 1u);
  }
}

TEST(UnionFindTest, UniteMergesAndFindAgrees) {
  UnionFind UF(4);
  unsigned Root = UF.unite(0, 1);
  EXPECT_TRUE(Root == 0 || Root == 1);
  EXPECT_EQ(UF.find(0), UF.find(1));
  EXPECT_NE(UF.find(0), UF.find(2));
  EXPECT_EQ(UF.setSize(0), 2u);
  EXPECT_EQ(UF.setSize(1), 2u);
}

TEST(UnionFindTest, UniteIsIdempotent) {
  UnionFind UF(3);
  unsigned R1 = UF.unite(0, 1);
  unsigned R2 = UF.unite(1, 0);
  EXPECT_EQ(R1, R2);
  EXPECT_EQ(UF.setSize(0), 2u);
}

TEST(UnionFindTest, GrowPreservesExistingSets) {
  UnionFind UF(2);
  UF.unite(0, 1);
  UF.grow(5);
  EXPECT_EQ(UF.find(0), UF.find(1));
  EXPECT_EQ(UF.find(4), 4u);
  EXPECT_EQ(UF.size(), 5u);
}

TEST(UnionFindTest, TransitiveUnions) {
  UnionFind UF(6);
  UF.unite(0, 1);
  UF.unite(2, 3);
  UF.unite(1, 2);
  EXPECT_EQ(UF.find(0), UF.find(3));
  EXPECT_EQ(UF.setSize(3), 4u);
  EXPECT_NE(UF.find(0), UF.find(4));
}

TEST(UnionFindTest, FindConstMatchesFind) {
  UnionFind UF(8);
  UF.unite(0, 1);
  UF.unite(1, 2);
  UF.unite(5, 6);
  const UnionFind &CUF = UF;
  for (unsigned I = 0; I != 8; ++I)
    EXPECT_EQ(CUF.findConst(I), UF.find(I));
}

TEST(UnionFindTest, RandomizedAgainstNaiveReference) {
  constexpr unsigned N = 300;
  UnionFind UF(N);
  std::vector<unsigned> Ref(N); // Naive labels.
  for (unsigned I = 0; I != N; ++I)
    Ref[I] = I;

  SplitMix64 Rng(42);
  for (unsigned Step = 0; Step != 500; ++Step) {
    unsigned A = static_cast<unsigned>(Rng.nextBelow(N));
    unsigned B = static_cast<unsigned>(Rng.nextBelow(N));
    UF.unite(A, B);
    unsigned From = Ref[B], To = Ref[A];
    for (unsigned I = 0; I != N; ++I)
      if (Ref[I] == From)
        Ref[I] = To;
  }
  for (unsigned I = 0; I != N; ++I)
    for (unsigned J = I + 1; J < N; J += 7)
      EXPECT_EQ(UF.find(I) == UF.find(J), Ref[I] == Ref[J])
          << "pair (" << I << ", " << J << ")";
}

TEST(UnionFindTest, BytesReflectsUniverseSize) {
  UnionFind Small(10), Large(10000);
  EXPECT_GT(Large.bytes(), Small.bytes());
  EXPECT_GE(Small.bytes(), 10 * 2 * sizeof(unsigned));
}

// --- LinkEvalForest: the link-eval structure behind the DSU dominator
// algorithm. Semantics under test: eval of an unlinked vertex returns the
// vertex itself; after links, eval(v) returns the minimum-key vertex on the
// path root-exclusive..v; path compression must not change any answer.

TEST(LinkEvalForestTest, UnlinkedVertexEvaluatesToItself) {
  unsigned Keys[] = {3, 1, 2};
  LinkEvalForest F(3, Keys);
  for (unsigned V = 0; V != 3; ++V)
    EXPECT_EQ(F.eval(V), V);
}

TEST(LinkEvalForestTest, EvalReturnsMinKeyOnRootExclusivePath) {
  // Chain 0 <- 1 <- 2 <- 3 (0 is the root). Keys chosen so the minimum on
  // the path excluding the root sits in the middle: eval(3) must see keys
  // of {1, 2, 3} only — the root's key 0 never competes.
  unsigned Keys[] = {0, 7, 4, 9};
  LinkEvalForest F(4, Keys);
  F.link(1, 0);
  F.link(2, 1);
  F.link(3, 2);
  EXPECT_EQ(F.eval(3), 2u) << "min key on path {1,2,3} is Keys[2]=4";
  EXPECT_EQ(F.eval(2), 2u);
  EXPECT_EQ(F.eval(1), 1u);
  EXPECT_EQ(F.eval(0), 0u) << "a root evaluates to itself";
}

TEST(LinkEvalForestTest, CompressionPreservesAnswers) {
  // Build a deep chain, evaluate the deepest vertex twice: the first call
  // compresses the path, the second answers from compressed state. Both
  // must agree — and with every other vertex's answer recorded beforehand.
  constexpr unsigned N = 2000;
  std::vector<unsigned> Keys(N);
  SplitMix64 Rng(7);
  for (unsigned I = 0; I != N; ++I)
    Keys[I] = static_cast<unsigned>(Rng.nextBelow(1000));
  LinkEvalForest F(N, Keys.data());
  for (unsigned V = 1; V != N; ++V)
    F.link(V, V - 1);

  // Reference: walk the chain explicitly.
  auto NaiveEval = [&](unsigned V) {
    unsigned Best = V;
    for (unsigned X = V; X != 0; --X) // parent of X is X-1; root is 0
      if (Keys[X] < Keys[Best])
        Best = X;
    return Best;
  };
  std::vector<unsigned> Expected(N);
  for (unsigned V = 0; V != N; ++V)
    Expected[V] = V == 0 ? 0 : NaiveEval(V);

  EXPECT_EQ(F.eval(N - 1), Expected[N - 1]); // compresses the whole chain
  for (unsigned V = 0; V != N; ++V)
    EXPECT_EQ(F.eval(V), Expected[V]) << "vertex " << V;
}

TEST(LinkEvalForestTest, RandomForestAgainstNaiveReference) {
  // Random link order over a random forest, interleaved with evals, all
  // checked against an uncompressed parent-pointer walk.
  constexpr unsigned N = 400;
  std::vector<unsigned> Keys(N), Parent(N, ~0u);
  SplitMix64 Rng(99);
  for (unsigned I = 0; I != N; ++I)
    Keys[I] = static_cast<unsigned>(Rng.nextBelow(500));
  LinkEvalForest F(N, Keys.data());

  auto NaiveEval = [&](unsigned V) {
    if (Parent[V] == ~0u)
      return V;
    unsigned Best = V;
    for (unsigned X = V; Parent[X] != ~0u; X = Parent[X])
      if (Keys[X] < Keys[Best])
        Best = X;
    return Best;
  };

  // Link vertices in decreasing index order onto random lower-index
  // parents — the same "parents are linked before children" discipline the
  // dominator computation follows in reverse preorder.
  for (unsigned V = N; V-- > 1;) {
    unsigned P = static_cast<unsigned>(Rng.nextBelow(V));
    F.link(V, P);
    Parent[V] = P;
    for (unsigned Probe = 0; Probe != 4; ++Probe) {
      unsigned Q = static_cast<unsigned>(Rng.nextBelow(N));
      EXPECT_EQ(F.eval(Q), NaiveEval(Q)) << "vertex " << Q;
    }
  }
}

TEST(LinkEvalForestTest, BytesGrowsWithUniverse) {
  unsigned Keys[1] = {0};
  std::vector<unsigned> Big(5000, 0);
  LinkEvalForest Small(1, Keys), Large(5000, Big.data());
  EXPECT_GT(Large.bytes(), Small.bytes());
}
