//===- tests/support/ArenaTest.cpp ----------------------------------------===//

#include "support/Arena.h"

#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <vector>

using namespace fcc;

namespace {

bool isAligned(const void *P, size_t Align) {
  return reinterpret_cast<uintptr_t>(P) % Align == 0;
}

TEST(ArenaTest, AllocationsAreDisjointAndWritable) {
  Arena A(1024);
  std::vector<unsigned *> Blocks;
  for (unsigned I = 0; I != 100; ++I) {
    unsigned *P = A.allocateArray<unsigned>(I % 7 + 1);
    for (unsigned J = 0; J != I % 7 + 1; ++J)
      P[J] = I * 100 + J;
    Blocks.push_back(P);
  }
  // Every block still holds the value written when it was live: no overlap.
  for (unsigned I = 0; I != 100; ++I)
    for (unsigned J = 0; J != I % 7 + 1; ++J)
      EXPECT_EQ(Blocks[I][J], I * 100 + J);
}

TEST(ArenaTest, RespectsAlignment) {
  Arena A(1024);
  A.allocate(1, 1); // misalign the cursor
  for (size_t Align : {size_t(2), size_t(4), size_t(8), size_t(16)}) {
    void *P = A.allocate(3, Align);
    EXPECT_TRUE(isAligned(P, Align)) << "alignment " << Align;
    A.allocate(1, 1);
  }
  EXPECT_TRUE(isAligned(A.allocateArray<uint64_t>(4), alignof(uint64_t)));
}

TEST(ArenaTest, OversizedRequestsGetTheirOwnChunk) {
  Arena A(1024);
  // Far bigger than the chunk size: must still succeed in one piece.
  unsigned *Big = A.allocateArray<unsigned>(100000);
  std::memset(Big, 0xAB, 100000 * sizeof(unsigned));
  EXPECT_GE(A.bytesReserved(), 100000 * sizeof(unsigned));
}

TEST(ArenaTest, ResetReusesChunksWithoutNewReservations) {
  Arena A(1024);
  for (unsigned I = 0; I != 1000; ++I)
    A.allocateArray<unsigned>(8);
  size_t ReservedAfterFill = A.bytesReserved();
  EXPECT_GT(ReservedAfterFill, 0u);

  // The same fill pattern after reset() must fit in the retained chunks.
  for (unsigned Round = 0; Round != 5; ++Round) {
    A.reset();
    EXPECT_EQ(A.bytesUsed(), 0u);
    for (unsigned I = 0; I != 1000; ++I)
      A.allocateArray<unsigned>(8);
    EXPECT_EQ(A.bytesReserved(), ReservedAfterFill) << "round " << Round;
  }
}

TEST(ArenaTest, BytesUsedCountsPayloadOnly) {
  Arena A(4096);
  EXPECT_EQ(A.bytesUsed(), 0u);
  A.allocate(10, 1);
  A.allocate(6, 1);
  EXPECT_EQ(A.bytesUsed(), 16u);
}

} // namespace
