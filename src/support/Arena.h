//===----------------------------------------------------------------------===//
///
/// \file
/// Bump-pointer arena for compiler metadata: interned name storage, the
/// per-compilation-unit syntax heap, and the hash-consed Type objects.
/// Objects allocated here are never destroyed individually; the arena
/// frees all memory at once. Callers that place non-trivially-destructible
/// objects here are responsible for running destructors themselves (the
/// frontend keeps its syntax nodes trivially destructible instead).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_SUPPORT_ARENA_H
#define MPC_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace mpc {

/// A simple bump-pointer allocator with geometrically growing slabs.
class Arena {
public:
  Arena() = default;
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  /// Allocates \p Size bytes aligned to \p Align.
  void *allocate(size_t Size, size_t Align = alignof(std::max_align_t)) {
    uintptr_t P = reinterpret_cast<uintptr_t>(Cur);
    uintptr_t Aligned = (P + Align - 1) & ~(Align - 1);
    if (Aligned + Size > reinterpret_cast<uintptr_t>(End)) {
      growSlab(Size + Align);
      P = reinterpret_cast<uintptr_t>(Cur);
      Aligned = (P + Align - 1) & ~(Align - 1);
    }
    Cur = reinterpret_cast<char *>(Aligned + Size);
    TotalUsed += Size;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Constructs a \p T in the arena. The destructor is never run.
  template <typename T, typename... Args> T *make(Args &&...CtorArgs) {
    return new (allocate(sizeof(T), alignof(T)))
        T(std::forward<Args>(CtorArgs)...);
  }

  /// Allocates an uninitialized array of \p N objects of type \p T.
  template <typename T> T *allocateArray(size_t N) {
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Copies \p N trivially-copyable elements into the arena; returns the
  /// stable copy (null when \p N is zero — an empty span needs no bytes).
  template <typename T> T *copyArray(const T *Data, size_t N) {
    if (!N)
      return nullptr;
    T *Mem = allocateArray<T>(N);
    for (size_t I = 0; I < N; ++I)
      Mem[I] = Data[I];
    return Mem;
  }

  /// Copies \p Size bytes into the arena and returns the stable copy.
  char *copyBytes(const char *Data, size_t Size) {
    char *Mem = static_cast<char *>(allocate(Size ? Size : 1, 1));
    for (size_t I = 0; I < Size; ++I)
      Mem[I] = Data[I];
    return Mem;
  }

  /// Total bytes handed out (excluding alignment waste).
  uint64_t bytesUsed() const { return TotalUsed; }

  /// Logically empties the arena for reuse, retaining the largest slab
  /// so a warm arena serves the next compilation without re-growing from
  /// scratch (usually the newest slab, but an early oversized request
  /// can leave the largest one mid-list). All previously returned
  /// pointers are invalidated. O(number of retired slabs).
  void reset() {
    if (Slabs.empty()) {
      TotalUsed = 0;
      return;
    }
    size_t Largest = 0;
    for (size_t I = 1; I < Slabs.size(); ++I)
      if (Slabs[I].Size > Slabs[Largest].Size)
        Largest = I;
    if (Largest != 0)
      Slabs.front() = std::move(Slabs[Largest]);
    Slabs.resize(1);
    startSlab(Slabs.front());
    TotalUsed = 0;
  }

private:
  struct SlabRec {
    std::unique_ptr<char[]> Mem;
    size_t Size;
  };
  static constexpr uintptr_t LineBytes = 64;

  /// Slabs are not zero-filled (every caller writes what it allocates
  /// before reading it). Each starts on a LineBytes boundary, so the
  /// layout inside a slab, down to which objects share a cache line, does
  /// not depend on where malloc put the slab; the simulated cache reads
  /// type objects from here.
  void growSlab(size_t AtLeast) {
    size_t Size = NextSlabSize;
    if (Size < AtLeast)
      Size = AtLeast * 2;
    NextSlabSize = NextSlabSize * 2;
    Slabs.push_back(
        {std::make_unique_for_overwrite<char[]>(Size + LineBytes - 1), Size});
    startSlab(Slabs.back());
  }

  void startSlab(const SlabRec &S) {
    uintptr_t P = reinterpret_cast<uintptr_t>(S.Mem.get());
    Cur = reinterpret_cast<char *>((P + LineBytes - 1) & ~(LineBytes - 1));
    End = Cur + S.Size;
  }

  std::vector<SlabRec> Slabs;
  char *Cur = nullptr;
  char *End = nullptr;
  size_t NextSlabSize = 4096;
  uint64_t TotalUsed = 0;
};

} // namespace mpc

#endif // MPC_SUPPORT_ARENA_H
