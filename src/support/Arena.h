//===- support/Arena.h - Bump allocator for per-pass scratch ----*- C++ -*-===//
///
/// \file
/// A chunked bump allocator for the per-function hot paths. The paper's cost
/// story (and LatticeHashForest's, for repetitive-set-heavy analyses) is
/// dominated by many small, short-lived containers: member lists that merge
/// a handful of ids, per-block caches, forest scratch. Allocating them from
/// a bump pointer and freeing them wholesale with reset() removes the
/// per-container malloc/free traffic, and reset() retains the chunks so one
/// arena serves every round/function a pass compiles. An arena that starts
/// small and doubles its chunks up to a cap (the IR pool each Function owns)
/// costs a small function a few hundred bytes and a large one a logarithmic
/// number of mallocs.
///
/// Under AddressSanitizer, clients may poison memory they have given up
/// (an erased instruction); the arena unpoisons every chunk before it hands
/// the bytes out again or returns them to the system.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_SUPPORT_ARENA_H
#define FCC_SUPPORT_ARENA_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <type_traits>

#if defined(__has_include)
#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#endif
#endif
#ifndef ASAN_POISON_MEMORY_REGION
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

namespace fcc {

/// Chunked bump allocator. Allocations never free individually; reset()
/// rewinds to empty while keeping the chunks for reuse.
class Arena {
public:
  static constexpr size_t DefaultChunkBytes = size_t(64) << 10;

  /// Chunks of \p ChunkBytes each; with \p MaxChunkBytes above that, each
  /// fresh chunk doubles the next one's size until it reaches the cap.
  explicit Arena(size_t ChunkBytes = DefaultChunkBytes,
                 size_t MaxChunkBytes = 0)
      : ChunkBytes(ChunkBytes),
        MaxChunkBytes(MaxChunkBytes > ChunkBytes ? MaxChunkBytes
                                                 : ChunkBytes) {
    assert(ChunkBytes >= sizeof(Chunk) + MaxAlign && "chunk too small");
  }

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  ~Arena() {
    for (Chunk *C = Chunks; C;) {
      Chunk *Next = C->Next;
      unpoison(C);
      std::free(C);
      C = Next;
    }
  }

  /// Allocates \p Bytes with \p Align (power of two, at most MaxAlign).
  void *allocate(size_t Bytes, size_t Align = alignof(std::max_align_t)) {
    assert(Align != 0 && (Align & (Align - 1)) == 0 && "non-power-of-two");
    assert(Align <= MaxAlign && "over-aligned arena request");
    uintptr_t P = (Cursor + (Align - 1)) & ~uintptr_t(Align - 1);
    if (P + Bytes > End) {
      refill(Bytes + Align);
      P = (Cursor + (Align - 1)) & ~uintptr_t(Align - 1);
    }
    Cursor = P + Bytes;
    Used += Bytes;
    return reinterpret_cast<void *>(P);
  }

  /// Typed array allocation. The memory is uninitialized; arena clients
  /// store trivially-destructible types only (ids, pods, pointers).
  template <typename T> T *allocateArray(size_t N) {
    static_assert(std::is_trivially_destructible<T>::value,
                  "arena memory is never destructed");
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Rewinds to empty. Chunks are retained: the next fill pattern reuses
  /// them without touching malloc.
  void reset() {
    for (Chunk *C = Chunks; C; C = C->Next)
      unpoison(C);
    Used = 0;
    Current = Chunks;
    if (Current) {
      Cursor = Current->Begin;
      End = Current->End;
    } else {
      Cursor = End = 0;
    }
  }

  /// Live bytes handed out since the last reset (excludes alignment pad).
  size_t bytesUsed() const { return Used; }

  /// Bytes of chunk memory reserved from the system.
  size_t bytesReserved() const { return Reserved; }

private:
  static constexpr size_t MaxAlign = alignof(std::max_align_t);

  struct Chunk {
    Chunk *Next = nullptr;
    uintptr_t Begin = 0;
    uintptr_t End = 0;
  };

  static void unpoison([[maybe_unused]] Chunk *C) {
    ASAN_UNPOISON_MEMORY_REGION(reinterpret_cast<void *>(C->Begin),
                                C->End - C->Begin);
  }

  void refill(size_t AtLeast) {
    // Advance to an already-reserved chunk when one is big enough (after a
    // reset), otherwise append a fresh chunk sized for the request.
    Chunk *Next = Current ? Current->Next : Chunks;
    if (Next && size_t(Next->End - Next->Begin) >= AtLeast) {
      Current = Next;
      Cursor = Next->Begin;
      End = Next->End;
      return;
    }
    size_t Payload = AtLeast > ChunkBytes - sizeof(Chunk) - MaxAlign
                         ? AtLeast
                         : ChunkBytes - sizeof(Chunk) - MaxAlign;
    size_t Total = sizeof(Chunk) + MaxAlign + Payload;
    void *Raw = std::malloc(Total);
    if (!Raw)
      throw std::bad_alloc();
    auto *C = new (Raw) Chunk();
    uintptr_t Base = reinterpret_cast<uintptr_t>(Raw) + sizeof(Chunk);
    C->Begin = (Base + (MaxAlign - 1)) & ~uintptr_t(MaxAlign - 1);
    C->End = reinterpret_cast<uintptr_t>(Raw) + Total;
    // Keep the list in reservation order so reset() replays it in order.
    if (!Chunks) {
      Chunks = C;
    } else {
      Chunk *Tail = Current ? Current : Chunks;
      while (Tail->Next)
        Tail = Tail->Next;
      Tail->Next = C;
    }
    Current = C;
    Cursor = C->Begin;
    End = C->End;
    Reserved += Total;
    if (ChunkBytes < MaxChunkBytes)
      ChunkBytes = ChunkBytes * 2 < MaxChunkBytes ? ChunkBytes * 2
                                                  : MaxChunkBytes;
  }

  size_t ChunkBytes; ///< Size of the next fresh chunk.
  size_t MaxChunkBytes;
  Chunk *Chunks = nullptr;  ///< All chunks, in reservation order.
  Chunk *Current = nullptr; ///< Chunk the cursor points into.
  uintptr_t Cursor = 0;
  uintptr_t End = 0;
  size_t Used = 0;
  size_t Reserved = 0;
};

} // namespace fcc

#endif // FCC_SUPPORT_ARENA_H
