//===- tests/support/IndexSetTest.cpp -------------------------------------===//

#include "support/IndexSet.h"

#include <gtest/gtest.h>
#include <vector>

using namespace fcc;

TEST(IndexSetTest, InsertEraseTest) {
  IndexSet S(128);
  EXPECT_FALSE(S.test(5));
  S.insert(5);
  S.insert(64);
  S.insert(127);
  EXPECT_TRUE(S.test(5));
  EXPECT_TRUE(S.test(64));
  EXPECT_TRUE(S.test(127));
  S.erase(64);
  EXPECT_FALSE(S.test(64));
  EXPECT_EQ(S.count(), 2u);
}

TEST(IndexSetTest, TestOutOfUniverseIsFalse) {
  IndexSet S(10);
  EXPECT_FALSE(S.test(100000));
}

TEST(IndexSetTest, ForEachVisitsInIncreasingOrder) {
  IndexSet S(200);
  S.insert(190);
  S.insert(0);
  S.insert(63);
  S.insert(64);
  std::vector<unsigned> Seen;
  S.forEach([&](unsigned Id) { Seen.push_back(Id); });
  EXPECT_EQ(Seen, (std::vector<unsigned>{0, 63, 64, 190}));
}

TEST(IndexSetTest, ClearAndEmpty) {
  IndexSet S(64);
  EXPECT_TRUE(S.empty());
  S.insert(10);
  EXPECT_FALSE(S.empty());
  S.clear();
  EXPECT_TRUE(S.empty());
}

TEST(IndexSetTest, EqualityIgnoresUniversePadding) {
  IndexSet A(64), B(640);
  A.insert(5);
  B.insert(5);
  EXPECT_TRUE(A == B);
  B.insert(500);
  EXPECT_FALSE(A == B);
}

TEST(IndexSetTest, ResizeUniversePreservesMembers) {
  IndexSet S(64);
  S.insert(63);
  S.resizeUniverse(1024);
  EXPECT_TRUE(S.test(63));
  S.insert(1000);
  EXPECT_TRUE(S.test(1000));
}
