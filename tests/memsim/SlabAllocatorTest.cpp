//===----------------------------------------------------------------------===//
// SlabAllocator: interleaved alloc/free stress across size classes (with
// content integrity checks, so overlapping blocks would be caught), free-
// list reuse, fallback and disabled modes — plus the load-bearing
// invariance property: the ManagedHeap's *simulated* statistics (what the
// Figure 5/6 benchmarks read) are byte-identical with the slab backend on
// vs. off, in both the standard and the AlwaysCopy configuration. The
// page-source tests pin PagePool: warm reuse up to its cap, unmapping past
// it, and no page ever taken from malloc. Tests that count pages give the
// allocator a PagePool of their own, so counts are exact.
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "frontend/Frontend.h"
#include "memsim/SlabAllocator.h"
#include "support/Rng.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>
#include <malloc.h>

using namespace mpc;

namespace {

TEST(SlabAllocator, InterleavedStressAcrossSizeClasses) {
  SlabAllocator Slab;
  Rng R(0x51ab);
  struct Live {
    char *Ptr;
    size_t Size;
    unsigned char Tag;
  };
  std::vector<Live> Blocks;
  unsigned char NextTag = 1;

  auto Check = [](const Live &B) {
    for (size_t I = 0; I < B.Size; ++I)
      if (static_cast<unsigned char>(B.Ptr[I]) != B.Tag)
        return false;
    return true;
  };

  for (int Round = 0; Round < 2000; ++Round) {
    if (Blocks.empty() || R.chance(60)) {
      // Sizes straddle every class and the fallback threshold.
      size_t Size = 1 + R.below(SlabAllocator::MaxSmallBytes + 128);
      Live B{static_cast<char *>(Slab.allocate(Size)), Size, NextTag++};
      ASSERT_NE(B.Ptr, nullptr);
      std::memset(B.Ptr, B.Tag, B.Size);
      Blocks.push_back(B);
    } else {
      size_t I = R.below(Blocks.size());
      ASSERT_TRUE(Check(Blocks[I])) << "block content clobbered";
      Slab.deallocate(Blocks[I].Ptr, Blocks[I].Size);
      Blocks[I] = Blocks.back();
      Blocks.pop_back();
    }
  }
  for (const Live &B : Blocks) {
    ASSERT_TRUE(Check(B)) << "block content clobbered at teardown";
    Slab.deallocate(B.Ptr, B.Size);
  }

  const SlabAllocator::Stats &S = Slab.stats();
  EXPECT_GT(S.SlabAllocs, 0u);
  EXPECT_GT(S.PagesMapped, 0u);
  EXPECT_GT(S.FallbackAllocs, 0u); // sizes above MaxSmallBytes occurred
  EXPECT_EQ(S.SystemCalls, S.PagesMapped + S.FallbackAllocs);
  // The slab batches: far fewer system calls than served allocations.
  EXPECT_LT(S.PagesMapped, S.SlabAllocs / 4);
}

TEST(SlabAllocator, FreeListReusesBlocksWithoutNewPages) {
  PagePool Pool;
  SlabAllocator Slab(true, Pool);
  void *First = Slab.allocate(48);
  Slab.deallocate(First, 48);
  for (int I = 0; I < 10000; ++I) {
    void *P = Slab.allocate(48);
    EXPECT_EQ(P, First) << "free list should hand back the same block";
    Slab.deallocate(P, 48);
  }
  EXPECT_EQ(Slab.stats().PagesMapped, 1u);
  EXPECT_EQ(Slab.stats().SlabAllocs, 10001u);
}

TEST(SlabAllocator, DistinctClassesDoNotAlias) {
  SlabAllocator Slab;
  void *A = Slab.allocate(16);
  void *B = Slab.allocate(32);
  Slab.deallocate(A, 16);
  // A 32-byte request must not be served from the 16-byte free list.
  void *C = Slab.allocate(32);
  EXPECT_NE(C, A);
  Slab.deallocate(B, 32);
  Slab.deallocate(C, 32);
}

TEST(SlabAllocator, EmptyPagesRetireAndRecycleAcrossClasses) {
  PagePool Pool;
  SlabAllocator Slab(true, Pool);
  // Fill the first page of the 32-byte class completely (it drops off
  // the available list as full), then allocate once more so a second
  // page becomes the class's active head.
  const size_t BlockBytes = 32;
  const size_t PerPage = (SlabAllocator::PageBytes - 64) / BlockBytes;
  std::vector<void *> First;
  for (size_t I = 0; I < PerPage; ++I)
    First.push_back(Slab.allocate(BlockBytes));
  void *Keep = Slab.allocate(BlockBytes); // page 2, the active head
  EXPECT_EQ(Slab.stats().PagesMapped, 2u);
  EXPECT_EQ(Slab.stats().PagesRetired, 0u);

  // Free every block of the first page. It re-enters the available list
  // behind the active head and, once fully free, retires to the source.
  for (void *P : First)
    Slab.deallocate(P, BlockBytes);
  EXPECT_EQ(Slab.stats().PagesRetired, 1u);
  EXPECT_EQ(Pool.size(), 1u);

  // A different size class reuses the retired page, warm, instead of a
  // fresh one.
  void *Other = Slab.allocate(128);
  EXPECT_EQ(Slab.stats().PagesMapped, 3u);
  EXPECT_EQ(Slab.stats().PagesWarm, 1u);
  EXPECT_EQ(Slab.stats().SystemCalls, 3u);
  EXPECT_EQ(Pool.stats().PagesFresh, 2u); // no new page from the kernel

  Slab.deallocate(Other, 128);
  Slab.deallocate(Keep, BlockBytes);
}

TEST(SlabAllocator, ActivePageHysteresisAvoidsRetireThrash) {
  PagePool Pool;
  SlabAllocator Slab(true, Pool);
  // A single page that is the class's active page: a free/alloc ping-pong
  // on one block must not retire and re-prime it every cycle.
  void *P = Slab.allocate(48);
  for (int I = 0; I < 1000; ++I) {
    Slab.deallocate(P, 48);
    P = Slab.allocate(48);
  }
  Slab.deallocate(P, 48);
  EXPECT_EQ(Slab.stats().PagesRetired, 0u);
  EXPECT_EQ(Slab.stats().PagesMapped, 1u);
}

TEST(PagePool, TrimCapsPoolInventory) {
  // Releasing an allocator that holds more pages than the pool's cap
  // keeps MaxPages of them warm and unmaps the rest.
  PagePool Pool;
  SlabAllocator Slab(true, Pool);
  // Take pages past the cap across several classes.
  std::vector<std::pair<void *, size_t>> Blocks;
  for (size_t Size : {32u, 128u, 256u, 480u})
    for (int I = 0; I < 300; ++I)
      Blocks.push_back({Slab.allocate(Size), Size});
  while (Slab.stats().PagesMapped <= PagePool::MaxPages + 16)
    Blocks.push_back({Slab.allocate(512), 512});
  uint64_t Mapped = Slab.stats().PagesMapped;
  for (auto &[Ptr, Size] : Blocks)
    Slab.deallocate(Ptr, Size);
  Slab.releaseAll();
  // The cap held: MaxPages warm, the rest unmapped.
  EXPECT_EQ(Pool.size(), PagePool::MaxPages);
  PagePool::Stats PS = Pool.stats();
  EXPECT_EQ(PS.PagesFresh, Mapped);
  EXPECT_EQ(PS.PagesPut, Mapped);
  EXPECT_EQ(PS.PagesTrimmed, Mapped - PagePool::MaxPages);
  EXPECT_EQ(PS.pagesHeld(), PagePool::MaxPages);
  // Fresh pages come from 2 MiB kernel runs, not one mapping per page.
  EXPECT_EQ(PS.RunsMapped,
            (Mapped + PagePool::RunPages - 1) / PagePool::RunPages);
  // Warm pages serve the next heap.
  SlabAllocator Next(true, Pool);
  void *P = Next.allocate(64);
  EXPECT_EQ(Next.stats().PagesMapped, 1u);
  EXPECT_EQ(Next.stats().PagesWarm, 1u);
  EXPECT_EQ(Pool.stats().PagesFresh, Mapped);
  Next.deallocate(P, 64);
}

TEST(PagePool, PagesAreAlignedAndDistinct) {
  PagePool Pool;
  std::vector<void *> Pages;
  for (size_t I = 0; I < 2 * PagePool::RunPages + 3; ++I) {
    PagePool::Taken T = Pool.take();
    EXPECT_FALSE(T.Warm);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(T.Page) % PagePool::PageBytes, 0u);
    // Every byte of a page is usable.
    std::memset(T.Page, 0x5a, PagePool::PageBytes);
    Pages.push_back(T.Page);
  }
  std::sort(Pages.begin(), Pages.end());
  for (size_t I = 1; I < Pages.size(); ++I)
    EXPECT_GE(static_cast<char *>(Pages[I]) - static_cast<char *>(Pages[I - 1]),
              static_cast<ptrdiff_t>(PagePool::PageBytes));
  EXPECT_EQ(Pool.stats().RunsMapped, 3u);
  // Given back, they come out again warm, last in first out.
  for (void *P : Pages)
    Pool.put(P);
  PagePool::Taken T = Pool.take();
  EXPECT_TRUE(T.Warm);
  EXPECT_EQ(T.Page, Pages.back());
  Pool.put(T.Page);
}

TEST(PagePool, TakingAndReleasingPagesLeavesMallocHeapUnchanged) {
  // With the slab on, pages come from the kernel, never from malloc: a
  // heap that takes and releases hundreds of pages leaves glibc's arena
  // exactly as large as before.
  PagePool Pool;
  SlabAllocator Slab(true, Pool);
  std::vector<void *> Blocks;
  const size_t NumBlocks = 200'000;
  Blocks.reserve(NumBlocks); // the only malloc, before the measurement
  size_t Arena0 = mallinfo2().arena;
  for (size_t I = 0; I < NumBlocks; ++I)
    Blocks.push_back(Slab.allocate(64));
  for (void *P : Blocks)
    Slab.deallocate(P, 64);
  Slab.releaseAll();
  size_t Arena1 = mallinfo2().arena;
  EXPECT_EQ(Arena1, Arena0);
  EXPECT_GT(Slab.stats().PagesMapped, 150u);
  EXPECT_EQ(Slab.stats().FallbackAllocs, 0u);
}

TEST(SlabAllocator, DisabledModePassesThrough) {
  PagePool Pool;
  SlabAllocator Slab(/*Enabled=*/false, Pool);
  void *P = Slab.allocate(64);
  ASSERT_NE(P, nullptr);
  std::memset(P, 0xab, 64);
  Slab.deallocate(P, 64);
  EXPECT_EQ(Slab.stats().SlabAllocs, 0u);
  EXPECT_EQ(Slab.stats().PagesMapped, 0u);
  EXPECT_EQ(Slab.stats().SystemCalls, 1u);
  EXPECT_EQ(Pool.stats().PagesFresh, 0u);
}

//===----------------------------------------------------------------------===//
// Memsim invariance: slab on vs. off must not move a single simulated byte.
//===----------------------------------------------------------------------===//

HeapStats pipelineHeapStats(bool SlabHeap, bool AlwaysCopy) {
  CompilerOptions Opts;
  Opts.SlabHeap = SlabHeap;
  CompilerContext Comp(Opts);
  Comp.heap().setGeometry(256ull << 10, 1);
  WorkloadProfile Profile = stdlibProfile(0.05);
  Profile.UnitsHint = 3;
  CompileOutput Out = compileProgram(
      Comp, generateWorkload(Profile),
      AlwaysCopy ? PipelineKind::Legacy : PipelineKind::StandardFused);
  EXPECT_TRUE(Out.PlanErrors.empty());
  EXPECT_FALSE(Comp.diags().hasErrors());
  HeapStats S = Comp.heap().stats();
  // Sanity: the run with the slab on really did use it.
  if (SlabHeap) {
    EXPECT_GT(Comp.heap().backendStats().SlabAllocs, 0u);
    EXPECT_LT(Comp.heap().backendStats().SystemCalls,
              Comp.heap().backendStats().SlabAllocs / 10);
  } else {
    EXPECT_EQ(Comp.heap().backendStats().SlabAllocs, 0u);
  }
  return S;
}

void expectStatsIdentical(const HeapStats &A, const HeapStats &B) {
  EXPECT_EQ(A.AllocatedBytes, B.AllocatedBytes);
  EXPECT_EQ(A.AllocatedObjects, B.AllocatedObjects);
  EXPECT_EQ(A.TenuredBytes, B.TenuredBytes);
  EXPECT_EQ(A.TenuredObjects, B.TenuredObjects);
  EXPECT_EQ(A.TenuredBeforeBoundaryBytes, B.TenuredBeforeBoundaryBytes);
  EXPECT_EQ(A.TenuredBeforeBoundaryObjects, B.TenuredBeforeBoundaryObjects);
  EXPECT_EQ(A.FreedBytes, B.FreedBytes);
  EXPECT_EQ(A.FreedObjects, B.FreedObjects);
  EXPECT_EQ(A.MinorGCs, B.MinorGCs);
  EXPECT_EQ(A.LiveBytes, B.LiveBytes);
  EXPECT_EQ(A.PeakLiveBytes, B.PeakLiveBytes);
}

TEST(SlabInvariance, SimulatedHeapStatsIdenticalSlabOnOff) {
  HeapStats On = pipelineHeapStats(/*SlabHeap=*/true, /*AlwaysCopy=*/false);
  HeapStats Off = pipelineHeapStats(/*SlabHeap=*/false, /*AlwaysCopy=*/false);
  ASSERT_GT(On.AllocatedObjects, 0u);
  expectStatsIdentical(On, Off);
}

TEST(SlabInvariance, SimulatedHeapStatsIdenticalUnderAlwaysCopy) {
  HeapStats On = pipelineHeapStats(/*SlabHeap=*/true, /*AlwaysCopy=*/true);
  HeapStats Off = pipelineHeapStats(/*SlabHeap=*/false, /*AlwaysCopy=*/true);
  ASSERT_GT(On.AllocatedObjects, 0u);
  expectStatsIdentical(On, Off);
}

} // namespace
