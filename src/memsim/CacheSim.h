//===----------------------------------------------------------------------===//
///
/// \file
/// Set-associative cache hierarchy simulator configured like the paper's
/// evaluation machine (Intel Xeon E5-2680 v2): 32KB 8-way L1d and L1i,
/// 256KB 8-way L2, and a 25MB 20-way *inclusive* L3. Inclusivity is modeled
/// faithfully: an eviction from L3 back-invalidates the line in L1d, L1i and
/// L2, which is the paper's explanation for the icache effect in Fig 8d.
///
/// The simulator consumes the real address stream of the real traversals
/// (tree node addresses from the allocator), so locality differences between
/// fused and unfused pipelines arise from the same mechanism as on hardware.
/// Before lookup each line is renamed to its ordinal in first-touch order.
/// Which accesses share a line, and every reuse, are unchanged, but the
/// set a line falls in no longer depends on where the kernel and malloc
/// placed memory in this run: two identical runs read identical counters,
/// in one process or in two. (Which lines an access spans still follows
/// the address's offset inside its line; the heap's slab pages and the
/// arenas keep those offsets deterministic.)
///
//===----------------------------------------------------------------------===//

#ifndef MPC_MEMSIM_CACHESIM_H
#define MPC_MEMSIM_CACHESIM_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace mpc {

/// Geometry of one cache level.
struct CacheGeometry {
  uint32_t Sets;
  uint32_t Ways;
  uint32_t LineBytes;

  uint64_t capacityBytes() const {
    return static_cast<uint64_t>(Sets) * Ways * LineBytes;
  }
};

/// One set-associative cache level with LRU replacement.
class CacheLevel {
public:
  explicit CacheLevel(CacheGeometry G);

  /// Looks up \p LineAddr (already divided by line size). Returns hit.
  bool lookup(uint64_t LineAddr);

  /// Inserts \p LineAddr; returns the evicted line address or ~0 if none.
  uint64_t insert(uint64_t LineAddr);

  /// Removes \p LineAddr if present (back-invalidation). Returns presence.
  bool invalidate(uint64_t LineAddr);

  const CacheGeometry &geometry() const { return Geo; }

private:
  static constexpr uint64_t EmptyTag = ~0ull;

  uint32_t setIndex(uint64_t LineAddr) const {
    // Sets is a power of two for all configured levels.
    return static_cast<uint32_t>(LineAddr & (Geo.Sets - 1));
  }

  CacheGeometry Geo;
  std::vector<uint64_t> Tags;   // Sets * Ways
  std::vector<uint64_t> Stamps; // LRU timestamps
  uint64_t Tick = 0;
};

/// Counter block shared by data and instruction accesses.
struct CacheCounters {
  uint64_t L1DLoads = 0, L1DLoadMisses = 0;
  uint64_t L1DStores = 0, L1DStoreMisses = 0;
  uint64_t L1IFetches = 0, L1IMisses = 0;
  uint64_t L2Accesses = 0, L2Misses = 0;
  uint64_t L3Accesses = 0, L3Misses = 0;
  /// Accesses that missed every on-chip cache (Fig 8c).
  uint64_t MemoryAccesses = 0;

  uint64_t l1dAccesses() const { return L1DLoads + L1DStores; }
  double l1dLoadMissRate() const {
    return L1DLoads ? double(L1DLoadMisses) / double(L1DLoads) : 0.0;
  }
  double l1dStoreMissRate() const {
    return L1DStores ? double(L1DStoreMisses) / double(L1DStores) : 0.0;
  }
  double llcLoadMissRate() const {
    return L3Accesses ? double(L3Misses) / double(L3Accesses) : 0.0;
  }
};

/// The three-level hierarchy (plus split L1i) with an inclusive L3.
class CacheSim {
public:
  /// Geometry defaults follow the paper's Xeon E5-2680 v2.
  CacheSim();

  /// Data load of \p Bytes at \p Addr (split into lines).
  void load(uint64_t Addr, uint32_t Bytes) { access(Addr, Bytes, AK_Load); }
  /// Data store.
  void store(uint64_t Addr, uint32_t Bytes) { access(Addr, Bytes, AK_Store); }
  /// Instruction fetch (simulated code addresses).
  void fetch(uint64_t Addr, uint32_t Bytes) { access(Addr, Bytes, AK_Fetch); }

  const CacheCounters &counters() const { return Counters; }
  void resetCounters() { Counters = CacheCounters(); }

  static constexpr uint32_t LineBytes = 64;

private:
  enum AccessKind { AK_Load, AK_Store, AK_Fetch };

  void access(uint64_t Addr, uint32_t Bytes, AccessKind Kind);
  void accessLine(uint64_t LineAddr, AccessKind Kind);
  /// The first-touch ordinal of real line \p Line (see the file comment).
  uint64_t renameLine(uint64_t Line);

  CacheLevel L1D, L1I, L2, L3;
  CacheCounters Counters;
  /// Line renaming: one table per RegionLines-line region of real lines,
  /// holding ordinal + 1 per line (0 = not touched yet), plus a one-entry
  /// cache of the last region used.
  static constexpr uint64_t RegionLines = 1024;
  std::unordered_map<uint64_t, std::unique_ptr<uint32_t[]>> Regions;
  uint64_t LastRegion = ~0ull;
  uint32_t *LastTable = nullptr;
  uint32_t LinesTouched = 0;
};

} // namespace mpc

#endif // MPC_MEMSIM_CACHESIM_H
