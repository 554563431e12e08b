#include "memsim/CacheSim.h"

#include <cassert>
#include <cstddef>

using namespace mpc;

CacheLevel::CacheLevel(CacheGeometry G)
    : Geo(G), Tags(static_cast<size_t>(G.Sets) * G.Ways, EmptyTag),
      Stamps(static_cast<size_t>(G.Sets) * G.Ways, 0) {
  assert((G.Sets & (G.Sets - 1)) == 0 && "set count must be a power of two");
}

bool CacheLevel::lookup(uint64_t LineAddr) {
  uint32_t Set = setIndex(LineAddr);
  size_t Base = static_cast<size_t>(Set) * Geo.Ways;
  for (uint32_t W = 0; W < Geo.Ways; ++W) {
    if (Tags[Base + W] == LineAddr) {
      Stamps[Base + W] = ++Tick;
      return true;
    }
  }
  return false;
}

uint64_t CacheLevel::insert(uint64_t LineAddr) {
  uint32_t Set = setIndex(LineAddr);
  size_t Base = static_cast<size_t>(Set) * Geo.Ways;
  // Prefer an empty way; otherwise evict the LRU way.
  uint32_t Victim = 0;
  uint64_t OldestStamp = ~0ull;
  for (uint32_t W = 0; W < Geo.Ways; ++W) {
    if (Tags[Base + W] == EmptyTag) {
      Victim = W;
      OldestStamp = 0;
      break;
    }
    if (Stamps[Base + W] < OldestStamp) {
      OldestStamp = Stamps[Base + W];
      Victim = W;
    }
  }
  uint64_t Evicted = Tags[Base + Victim];
  Tags[Base + Victim] = LineAddr;
  Stamps[Base + Victim] = ++Tick;
  return Evicted == EmptyTag ? ~0ull : Evicted;
}

bool CacheLevel::invalidate(uint64_t LineAddr) {
  uint32_t Set = setIndex(LineAddr);
  size_t Base = static_cast<size_t>(Set) * Geo.Ways;
  for (uint32_t W = 0; W < Geo.Ways; ++W) {
    if (Tags[Base + W] == LineAddr) {
      Tags[Base + W] = EmptyTag;
      Stamps[Base + W] = 0;
      return true;
    }
  }
  return false;
}

// Xeon E5-2680 v2 geometry: L1d/L1i 32KB 8-way, L2 256KB 8-way,
// L3 25MB 20-way inclusive. 25MB/64B/20-way = 20480 sets, which is a power
// of two (2^14 = 16384? no: 20480 = 2^12 * 5). Index masking needs a power
// of two, so we use 16384 sets * 20 ways * 64B = 20MB, the closest
// power-of-two-set configuration; capacity differences at this scale do not
// change the qualitative behaviour.
CacheSim::CacheSim()
    : L1D({64, 8, LineBytes}), L1I({64, 8, LineBytes}),
      L2({512, 8, LineBytes}), L3({16384, 20, LineBytes}) {}

uint64_t CacheSim::renameLine(uint64_t Line) {
  uint64_t Region = Line / RegionLines;
  if (Region != LastRegion) {
    std::unique_ptr<uint32_t[]> &Table = Regions[Region];
    if (!Table)
      Table = std::make_unique<uint32_t[]>(RegionLines); // all untouched
    LastRegion = Region;
    LastTable = Table.get();
  }
  uint32_t &Ordinal = LastTable[Line % RegionLines];
  if (!Ordinal)
    Ordinal = ++LinesTouched;
  return Ordinal - 1;
}

void CacheSim::access(uint64_t Addr, uint32_t Bytes, AccessKind Kind) {
  uint64_t FirstLine = Addr / LineBytes;
  uint64_t LastLine = (Addr + (Bytes ? Bytes - 1 : 0)) / LineBytes;
  for (uint64_t Line = FirstLine; Line <= LastLine; ++Line)
    accessLine(renameLine(Line), Kind);
}

void CacheSim::accessLine(uint64_t LineAddr, AccessKind Kind) {
  CacheLevel &L1 = (Kind == AK_Fetch) ? L1I : L1D;

  switch (Kind) {
  case AK_Load:
    ++Counters.L1DLoads;
    break;
  case AK_Store:
    ++Counters.L1DStores;
    break;
  case AK_Fetch:
    ++Counters.L1IFetches;
    break;
  }

  if (L1.lookup(LineAddr))
    return;

  switch (Kind) {
  case AK_Load:
    ++Counters.L1DLoadMisses;
    break;
  case AK_Store:
    ++Counters.L1DStoreMisses;
    break;
  case AK_Fetch:
    ++Counters.L1IMisses;
    break;
  }

  ++Counters.L2Accesses;
  bool L2Hit = L2.lookup(LineAddr);
  if (!L2Hit) {
    ++Counters.L2Misses;
    ++Counters.L3Accesses;
    bool L3Hit = L3.lookup(LineAddr);
    if (!L3Hit) {
      ++Counters.L3Misses;
      ++Counters.MemoryAccesses;
      // Fill L3; inclusive property: anything evicted from L3 must leave
      // the core caches as well.
      uint64_t Evicted = L3.insert(LineAddr);
      if (Evicted != ~0ull) {
        L1D.invalidate(Evicted);
        L1I.invalidate(Evicted);
        L2.invalidate(Evicted);
      }
    }
    L2.insert(LineAddr);
  }
  L1.insert(LineAddr);
}
