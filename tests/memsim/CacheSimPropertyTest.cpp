//===----------------------------------------------------------------------===//
// Property tests for the cache-hierarchy simulator and the generational
// heap model — the two measurement substrates standing in for the paper's
// perf counters (Figures 7/8) and HotSpot GC logs (Figures 5/6). The
// simulators' mechanics must be trustworthy for the benchmark shapes to
// mean anything, so the replacement policy, inclusivity and tenuring
// accounting are pinned here in isolation.
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "memsim/CacheSim.h"
#include "memsim/ManagedHeap.h"
#include "memsim/PerfCounters.h"
#include "support/Rng.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

//===----------------------------------------------------------------------===//
// CacheLevel: replacement policy
//===----------------------------------------------------------------------===//

TEST(CacheLevelTest, AssociativityBoundsResidency) {
  // Ways distinct lines mapping to one set all stay resident; one more
  // evicts the least recently used.
  CacheGeometry G{/*Sets=*/4, /*Ways=*/2, /*LineBytes=*/64};
  CacheLevel L(G);
  uint64_t SameSet0 = 0;      // set 0
  uint64_t SameSet1 = 4;      // set 0 again (4 sets)
  uint64_t SameSet2 = 8;      // set 0 again
  EXPECT_FALSE(L.lookup(SameSet0));
  L.insert(SameSet0);
  EXPECT_FALSE(L.lookup(SameSet1));
  L.insert(SameSet1);
  EXPECT_TRUE(L.lookup(SameSet0));
  EXPECT_TRUE(L.lookup(SameSet1));
  // Third line in the same set evicts; both prior lines were just touched,
  // so the evicted one is the least recently used: SameSet0.
  L.lookup(SameSet0); // make SameSet1 the LRU
  uint64_t Evicted = L.insert(SameSet2);
  EXPECT_EQ(Evicted, SameSet1);
  EXPECT_TRUE(L.lookup(SameSet0));
  EXPECT_FALSE(L.lookup(SameSet1));
  EXPECT_TRUE(L.lookup(SameSet2));
}

TEST(CacheLevelTest, DifferentSetsDoNotConflict) {
  CacheGeometry G{/*Sets=*/4, /*Ways=*/1, /*LineBytes=*/64};
  CacheLevel L(G);
  for (uint64_t Line = 0; Line < 4; ++Line) {
    uint64_t Evicted = L.insert(Line);
    EXPECT_EQ(Evicted, ~0ull) << "line " << Line;
  }
  for (uint64_t Line = 0; Line < 4; ++Line)
    EXPECT_TRUE(L.lookup(Line));
}

TEST(CacheLevelTest, InvalidateRemovesLine) {
  CacheGeometry G{/*Sets=*/2, /*Ways=*/2, /*LineBytes=*/64};
  CacheLevel L(G);
  L.insert(10);
  EXPECT_TRUE(L.lookup(10));
  EXPECT_TRUE(L.invalidate(10));
  EXPECT_FALSE(L.lookup(10));
  EXPECT_FALSE(L.invalidate(10)); // second invalidation is a no-op
}

TEST(CacheLevelTest, LruIsPerSet) {
  // Touching lines in set 1 must not age lines in set 0.
  CacheGeometry G{/*Sets=*/2, /*Ways=*/1, /*LineBytes=*/64};
  CacheLevel L(G);
  L.insert(0); // set 0
  L.insert(1); // set 1
  L.insert(3); // set 1, evicts 1
  EXPECT_TRUE(L.lookup(0));
  EXPECT_FALSE(L.lookup(1));
  EXPECT_TRUE(L.lookup(3));
}

//===----------------------------------------------------------------------===//
// CacheSim hierarchy behaviour
//===----------------------------------------------------------------------===//

TEST(CacheHierarchy, RepeatedAccessHitsL1Only) {
  CacheSim CS;
  CS.load(0x1000, 8);
  CS.resetCounters();
  for (int I = 0; I < 100; ++I)
    CS.load(0x1000, 8);
  const CacheCounters &C = CS.counters();
  EXPECT_EQ(C.L1DLoads, 100u);
  EXPECT_EQ(C.L1DLoadMisses, 0u);
  EXPECT_EQ(C.L2Accesses, 0u);
  EXPECT_EQ(C.MemoryAccesses, 0u);
}

TEST(CacheHierarchy, ColdMissGoesAllTheWayToMemory) {
  CacheSim CS;
  CS.load(0x5000, 8);
  const CacheCounters &C = CS.counters();
  EXPECT_EQ(C.L1DLoadMisses, 1u);
  EXPECT_EQ(C.L2Misses, 1u);
  EXPECT_EQ(C.L3Misses, 1u);
  EXPECT_EQ(C.MemoryAccesses, 1u);
}

TEST(CacheHierarchy, StoresAreCountedSeparately) {
  CacheSim CS;
  CS.store(0x2000, 8);
  CS.store(0x2000, 8);
  const CacheCounters &C = CS.counters();
  EXPECT_EQ(C.L1DStores, 2u);
  EXPECT_EQ(C.L1DStoreMisses, 1u);
  EXPECT_EQ(C.L1DLoads, 0u);
}

TEST(CacheHierarchy, InstructionFetchesUseSplitL1) {
  CacheSim CS;
  CS.fetch(0x8000, 16);
  CS.fetch(0x8000, 16);
  const CacheCounters &C = CS.counters();
  EXPECT_EQ(C.L1IFetches, 2u);
  EXPECT_EQ(C.L1IMisses, 1u);
  EXPECT_EQ(C.L1DLoads, 0u); // data side untouched
  // A data load of the same line must still miss L1d (split caches)...
  CS.load(0x8000, 8);
  EXPECT_EQ(CS.counters().L1DLoadMisses, 1u);
  // ...but hit L2, which is unified (no new memory access).
  EXPECT_EQ(CS.counters().MemoryAccesses, 1u);
}

TEST(CacheHierarchy, WideAccessTouchesEveryStraddledLine) {
  CacheSim CS;
  // 256 bytes starting at a line boundary: 4 lines.
  CS.load(0x10000, 256);
  EXPECT_EQ(CS.counters().L1DLoads, 4u);
  // 8 bytes straddling a line boundary: 2 lines.
  CS.resetCounters();
  CS.load(0x20000 + CacheSim::LineBytes - 4, 8);
  EXPECT_EQ(CS.counters().L1DLoads, 2u);
}

TEST(CacheHierarchy, WorkingSetLargerThanL1SpillsToL2) {
  CacheSim CS;
  // 64KB working set: fits L2 (256KB), not L1d (32KB). Two passes: the
  // second pass must hit L2 but not L1.
  const uint64_t Lines = (64 * 1024) / CacheSim::LineBytes;
  for (uint64_t I = 0; I < Lines; ++I)
    CS.load(0x100000 + I * CacheSim::LineBytes, 8);
  CS.resetCounters();
  for (uint64_t I = 0; I < Lines; ++I)
    CS.load(0x100000 + I * CacheSim::LineBytes, 8);
  const CacheCounters &C = CS.counters();
  EXPECT_GT(C.L1DLoadMisses, Lines / 2); // mostly misses L1
  EXPECT_EQ(C.MemoryAccesses, 0u);       // but never leaves the chip
}

TEST(CacheHierarchy, InclusiveL3EvictionBackInvalidatesL2) {
  // Sweep far more than the L3 capacity, then re-touch the first line:
  // inclusivity demands it is gone from EVERY level, so the re-touch goes
  // to memory.
  CacheSim CS;
  const uint64_t L3Bytes = 25ull * 1024 * 1024;
  const uint64_t Lines = (2 * L3Bytes) / CacheSim::LineBytes;
  CS.load(0x0, 8);
  for (uint64_t I = 1; I < Lines; ++I)
    CS.load(I * CacheSim::LineBytes, 8);
  CS.resetCounters();
  CS.load(0x0, 8);
  EXPECT_EQ(CS.counters().MemoryAccesses, 1u);
}

bool sameCounters(const CacheCounters &A, const CacheCounters &B) {
  return A.L1DLoads == B.L1DLoads && A.L1DLoadMisses == B.L1DLoadMisses &&
         A.L1DStores == B.L1DStores && A.L1DStoreMisses == B.L1DStoreMisses &&
         A.L1IFetches == B.L1IFetches && A.L1IMisses == B.L1IMisses &&
         A.L2Accesses == B.L2Accesses && A.L2Misses == B.L2Misses &&
         A.L3Accesses == B.L3Accesses && A.L3Misses == B.L3Misses &&
         A.MemoryAccesses == B.MemoryAccesses;
}

TEST(CacheHierarchy, CountersDoNotDependOnPlacement) {
  // The same access pattern over objects on 64 KiB pages reads the same
  // counters wherever the pages sit, in order or scattered (as heap pages
  // are between runs): lines are renamed in first-touch order.
  auto Run = [](uint64_t Base, uint64_t PageStride) {
    CacheSim CS;
    Rng R(7);
    const uint64_t PerPage = 0x10000 / 48; // no object spans two pages
    auto At = [&](uint64_t Obj) {
      return Base + (Obj / PerPage) * PageStride + (Obj % PerPage) * 48;
    };
    for (int I = 0; I < 200000; ++I) {
      uint64_t Obj = R.below(40000);
      CS.load(At(Obj), 48);
      if (I % 5 == 0)
        CS.store(At(Obj), 16);
    }
    return CS.counters();
  };
  CacheCounters A = Run(0x10000, 0x10000);
  EXPECT_GT(A.L1DLoadMisses, 0u);
  EXPECT_GT(A.L2Misses, 0u);
  EXPECT_TRUE(sameCounters(A, Run(0x7f3a12340000ull, 0x10000)));
  EXPECT_TRUE(sameCounters(A, Run(0x10000, 0x10000 * 7919)));
}

TEST(CacheHierarchy, IdenticalCompilesReadIdenticalCounters) {
  // Two identical compiles in one process, each with a fresh simulator:
  // the second runs on pages the first gave back and on a malloc heap the
  // first left in another state, and must read the same counters.
  auto Run = [] {
    CompilerContext Comp;
    CacheSim CS;
    PerfCounters PC(CS);
    Comp.attachSimulators(&CS, &PC);
    WorkloadProfile P = stdlibProfile(0.02);
    P.UnitsHint = 2;
    CompileOutput Out = compileProgram(Comp, generateWorkload(P),
                                       PipelineKind::StandardFused);
    EXPECT_FALSE(Comp.diags().hasErrors());
    return CS.counters();
  };
  CacheCounters First = Run();
  EXPECT_GT(First.L1DLoads, 0u);
  for (int I = 0; I < 2; ++I)
    EXPECT_TRUE(sameCounters(First, Run())) << "repeat " << I;
}

/// Locality property over strides: for a fixed number of accesses, larger
/// strides (less spatial locality) can only increase L1 misses.
class StrideLocality : public ::testing::TestWithParam<uint32_t> {};

TEST_P(StrideLocality, MissesGrowMonotonicallyWithStride) {
  uint32_t Stride = GetParam();
  auto MissesAtStride = [](uint32_t S) {
    CacheSim CS;
    for (uint64_t I = 0; I < 4096; ++I)
      CS.load(0x40000 + I * S, 8);
    return CS.counters().L1DLoadMisses;
  };
  ASSERT_GE(Stride, 8u);
  EXPECT_LE(MissesAtStride(Stride / 2), MissesAtStride(Stride));
}

INSTANTIATE_TEST_SUITE_P(Strides, StrideLocality,
                         ::testing::Values(8u, 16u, 32u, 64u, 128u),
                         [](const ::testing::TestParamInfo<uint32_t> &I) {
                           return "stride" + std::to_string(I.param);
                         });

//===----------------------------------------------------------------------===//
// ManagedHeap: generational accounting
//===----------------------------------------------------------------------===//

TEST(HeapModel, ObjectDyingWithinEpochStaysYoung) {
  ManagedHeap H(/*YoungGenBytes=*/1000, /*TenureThreshold=*/1);
  uint64_t Birth;
  void *P = H.allocate(100, Birth);
  H.deallocate(P, 100, Birth);
  EXPECT_EQ(H.stats().TenuredObjects, 0u);
  EXPECT_EQ(H.stats().FreedObjects, 1u);
}

TEST(HeapModel, ObjectSurvivingMinorGCIsTenured) {
  ManagedHeap H(/*YoungGenBytes=*/1000, /*TenureThreshold=*/1);
  uint64_t Birth;
  void *P = H.allocate(100, Birth);
  // Burn through one young generation (sized so no burn object's own
  // allocation lands exactly on the epoch boundary): a minor GC happens.
  for (int I = 0; I < 19; ++I) {
    uint64_t B;
    void *Q = H.allocate(50, B);
    H.deallocate(Q, 50, B);
  }
  H.deallocate(P, 100, Birth);
  EXPECT_EQ(H.stats().TenuredObjects, 1u);
  EXPECT_EQ(H.stats().TenuredBytes, 100u);
}

TEST(HeapModel, HigherThresholdDelaysPromotion) {
  // With threshold 3, surviving one minor GC is not enough.
  ManagedHeap H(/*YoungGenBytes=*/1000, /*TenureThreshold=*/3);
  uint64_t Birth;
  void *P = H.allocate(100, Birth);
  for (int I = 0; I < 10; ++I) { // one epoch's worth
    uint64_t B;
    void *Q = H.allocate(100, B);
    H.deallocate(Q, 100, B);
  }
  H.deallocate(P, 100, Birth);
  EXPECT_EQ(H.stats().TenuredObjects, 0u);

  uint64_t Birth2;
  void *P2 = H.allocate(100, Birth2);
  for (int I = 0; I < 30; ++I) { // three epochs' worth
    uint64_t B;
    void *Q = H.allocate(100, B);
    H.deallocate(Q, 100, B);
  }
  H.deallocate(P2, 100, Birth2);
  EXPECT_EQ(H.stats().TenuredObjects, 1u);
}

TEST(HeapModel, ChargeBytesDriveTheClockNotMallocBytes) {
  // Tree nodes charge more than their malloc size (child-cell accounting):
  // the clock must advance by the charge.
  ManagedHeap H(/*YoungGenBytes=*/1000, /*TenureThreshold=*/1);
  uint64_t Birth;
  void *P = H.allocate(/*MallocBytes=*/16, /*ChargeBytes=*/500, Birth);
  uint64_t Birth2;
  void *Q = H.allocate(16, 500, Birth2);
  // Asymmetric allocations must free through the asymmetric overload so
  // the real-storage size reaches the slab's size-class lookup.
  H.deallocate(Q, /*MallocBytes=*/16, /*ChargeBytes=*/500, Birth2);
  H.deallocate(P, /*MallocBytes=*/16, /*ChargeBytes=*/500, Birth);
  EXPECT_EQ(H.stats().AllocatedBytes, 1000u);
  EXPECT_EQ(H.minorGCs(), 1u);
}

TEST(HeapModel, LiveAndPeakTrackAllocations) {
  ManagedHeap H(1 << 20, 1);
  uint64_t B1, B2;
  void *P1 = H.allocate(300, B1);
  void *P2 = H.allocate(200, B2);
  EXPECT_EQ(H.stats().LiveBytes, 500u);
  EXPECT_EQ(H.stats().PeakLiveBytes, 500u);
  H.deallocate(P2, 200, B2);
  EXPECT_EQ(H.stats().LiveBytes, 300u);
  EXPECT_EQ(H.stats().PeakLiveBytes, 500u);
  H.deallocate(P1, 300, B1);
  EXPECT_EQ(H.stats().LiveBytes, 0u);
}

TEST(HeapModel, BoundaryAttributesPromotionToEarlierStage) {
  // An object promoted during stage 1 but dying in stage 2 must be
  // attributed to stage 1 (TenuredBeforeBoundary) — the frontend-tree
  // case that otherwise dilutes the Figure 6 comparison.
  ManagedHeap H(/*YoungGenBytes=*/1000, /*TenureThreshold=*/1);
  uint64_t EarlyBirth;
  void *Early = H.allocate(100, EarlyBirth);
  // Burn three epochs: Early is promoted long before the boundary.
  for (int I = 0; I < 60; ++I) {
    uint64_t B;
    void *Q = H.allocate(50, B);
    H.deallocate(Q, 50, B);
  }
  H.markBoundary();
  // An object allocated after the boundary that also tenures.
  uint64_t LateBirth;
  void *Late = H.allocate(100, LateBirth);
  for (int I = 0; I < 40; ++I) {
    uint64_t B;
    void *Q = H.allocate(50, B);
    H.deallocate(Q, 50, B);
  }
  H.deallocate(Early, 100, EarlyBirth);
  H.deallocate(Late, 100, LateBirth);
  const HeapStats &S = H.stats();
  EXPECT_EQ(S.TenuredObjects, 2u);
  EXPECT_EQ(S.TenuredBeforeBoundaryObjects, 1u);
  EXPECT_EQ(S.TenuredBeforeBoundaryBytes, 100u);
}

TEST(HeapModel, ResetClearsClockAndStats) {
  ManagedHeap H(1000, 1);
  uint64_t B;
  void *P = H.allocate(2500, B);
  H.deallocate(P, 2500, B);
  EXPECT_GT(H.minorGCs(), 0u);
  H.resetStats();
  EXPECT_EQ(H.minorGCs(), 0u);
  EXPECT_EQ(H.stats().AllocatedBytes, 0u);
  EXPECT_EQ(H.stats().TenuredObjects, 0u);
}

/// The central mechanism of Figures 5/6, reproduced in miniature: N
/// "nodes" are each rewritten by P phases. Fused, the P rewrites of one
/// node happen back-to-back (intermediate dies young); unfused, a node's
/// rewrite survives a whole sweep of the other N-1 nodes.
class TenuringMechanism : public ::testing::TestWithParam<unsigned> {};

TEST_P(TenuringMechanism, FusionReducesTenuredBytes) {
  const unsigned Nodes = 2000;
  const unsigned Phases = GetParam();
  const unsigned ObjBytes = 64;
  // Young generation sized well below one full sweep, as in the paper's
  // setting where the tree vastly exceeds the young gen.
  const uint64_t YoungGen = Nodes * ObjBytes / 4;

  struct Obj {
    void *P = nullptr;
    uint64_t Birth = 0;
  };

  auto Sweep = [&](bool Fused) {
    ManagedHeap H(YoungGen, 1);
    std::vector<Obj> Cur(Nodes);
    for (Obj &O : Cur)
      O.P = H.allocate(ObjBytes, O.Birth);
    if (Fused) {
      for (unsigned N = 0; N < Nodes; ++N)
        for (unsigned Ph = 0; Ph < Phases; ++Ph) {
          Obj Next;
          Next.P = H.allocate(ObjBytes, Next.Birth);
          H.deallocate(Cur[N].P, ObjBytes, Cur[N].Birth);
          Cur[N] = Next;
        }
    } else {
      for (unsigned Ph = 0; Ph < Phases; ++Ph)
        for (unsigned N = 0; N < Nodes; ++N) {
          Obj Next;
          Next.P = H.allocate(ObjBytes, Next.Birth);
          H.deallocate(Cur[N].P, ObjBytes, Cur[N].Birth);
          Cur[N] = Next;
        }
    }
    for (Obj &O : Cur)
      H.deallocate(O.P, ObjBytes, O.Birth);
    return H.stats().TenuredBytes;
  };

  uint64_t FusedTenured = Sweep(true);
  uint64_t UnfusedTenured = Sweep(false);
  // Fusion always tenures less; the gap widens with the phase count (at
  // P phases only 1/P of fused rewrites survive a sweep boundary, versus
  // every rewrite under the unfused schedule).
  EXPECT_LT(FusedTenured, UnfusedTenured)
      << "fused=" << FusedTenured << " unfused=" << UnfusedTenured;
  if (Phases >= 5) {
    EXPECT_LT(FusedTenured, UnfusedTenured / 2)
        << "fused=" << FusedTenured << " unfused=" << UnfusedTenured;
  }
}

INSTANTIATE_TEST_SUITE_P(PhaseCounts, TenuringMechanism,
                         ::testing::Values(2u, 5u, 10u, 25u),
                         [](const ::testing::TestParamInfo<unsigned> &I) {
                           return "phases" + std::to_string(I.param);
                         });

} // namespace
