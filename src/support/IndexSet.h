//===- support/IndexSet.h - Dense bitset over small ids ---------*- C++ -*-===//
///
/// \file
/// A dense bitset keyed by small unsigned ids (variable or block numbers).
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_INDEXSET_H
#define FCC_SUPPORT_INDEXSET_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fcc {

/// Word-packed set of unsigned ids in [0, universe size).
class IndexSet {
public:
  IndexSet() = default;
  explicit IndexSet(unsigned Universe) : Words((Universe + 63) / 64, 0) {}

  /// An owning copy of \p NumWords word-packed words (how Liveness copies
  /// a set out of its flat storage).
  IndexSet(const uint64_t *Data, size_t NumWords)
      : Words(Data, Data + NumWords) {}

  /// Re-sizes the universe, preserving current members that still fit.
  void resizeUniverse(unsigned Universe) {
    Words.resize((Universe + 63) / 64, 0);
  }

  unsigned universe() const { return static_cast<unsigned>(Words.size()) * 64; }

  void insert(unsigned Id) {
    assert(Id / 64 < Words.size() && "IndexSet::insert out of universe");
    Words[Id / 64] |= uint64_t(1) << (Id % 64);
  }

  void erase(unsigned Id) {
    assert(Id / 64 < Words.size() && "IndexSet::erase out of universe");
    Words[Id / 64] &= ~(uint64_t(1) << (Id % 64));
  }

  bool test(unsigned Id) const {
    if (Id / 64 >= Words.size())
      return false;
    return (Words[Id / 64] >> (Id % 64)) & 1;
  }

  void clear() {
    for (uint64_t &W : Words)
      W = 0;
  }

  bool empty() const {
    for (uint64_t W : Words)
      if (W)
        return false;
    return true;
  }

  size_t count() const {
    size_t Total = 0;
    for (uint64_t W : Words)
      Total += static_cast<size_t>(__builtin_popcountll(W));
    return Total;
  }

  bool operator==(const IndexSet &Other) const {
    size_t Common = std::min(Words.size(), Other.Words.size());
    for (size_t I = 0; I != Common; ++I)
      if (Words[I] != Other.Words[I])
        return false;
    for (size_t I = Common; I < Words.size(); ++I)
      if (Words[I])
        return false;
    for (size_t I = Common; I < Other.Words.size(); ++I)
      if (Other.Words[I])
        return false;
    return true;
  }

  /// Invokes \p Fn on every member in increasing order.
  template <typename CallableT> void forEach(CallableT Fn) const {
    for (size_t I = 0, E = Words.size(); I != E; ++I) {
      uint64_t W = Words[I];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        Fn(static_cast<unsigned>(I * 64 + Bit));
        W &= W - 1;
      }
    }
  }

  /// Bytes of memory held (for the paper's memory tables).
  size_t bytes() const { return Words.capacity() * sizeof(uint64_t); }

private:
  std::vector<uint64_t> Words;
};

} // namespace fcc

#endif // FCC_SUPPORT_INDEXSET_H
