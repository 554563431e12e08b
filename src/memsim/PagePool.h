//===----------------------------------------------------------------------===//
///
/// \file
/// The process's one source of 64 KiB heap pages: every SlabAllocator
/// (the ManagedHeap's tree storage) and every VM object arena draw their
/// pages from here and give them back here.
///
/// Pages come from the kernel, never from malloc. The pool maps a run of
/// RunPages pages with one mmap, trims the run to PageBytes alignment (a
/// slab block finds its page header by masking its address), and carves
/// pages off the run as they are asked for; the kernel backs each page
/// only when it is first touched. A page given back (put) joins a warm
/// list and is handed out again (take) before any fresh page is carved,
/// so a steady stream of compiles or VM runs reuses resident, already
/// faulted-in memory. The warm list holds at most MaxPages pages; a put
/// beyond that unmaps the page, so one burst of large jobs does not pin
/// its peak footprint for the life of the process (Stats::PagesTrimmed).
///
/// Keeping the pages out of malloc is the point: a malloc'd page freed
/// back to glibc stays in its heap, fragmented among small blocks, and
/// the process keeps paying for it. Here memory is either in use, warm
/// (bounded) or returned to the kernel.
///
/// PagePool::global() is the process-wide instance every heap uses by
/// default. It is created on first use and never destroyed, so it
/// outlives every heap, including ones torn down by static destructors
/// or by threads still running at exit. Tests that need exact counts
/// construct a pool of their own and hand it to a SlabAllocator.
///
/// Under AddressSanitizer a page is poisoned while it sits on the warm
/// list, so a stale pointer into a released page is reported.
///
/// All operations are mutex-guarded; they run once per 64 KiB page, never
/// per allocation, so the lock is far off the allocation fast path.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_MEMSIM_PAGEPOOL_H
#define MPC_MEMSIM_PAGEPOOL_H

#include "support/FaultInjector.h"

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>

#include <sys/mman.h>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#define MPC_POISON_PAGE(P, N) ASAN_POISON_MEMORY_REGION(P, N)
#define MPC_UNPOISON_PAGE(P, N) ASAN_UNPOISON_MEMORY_REGION(P, N)
#else
#define MPC_POISON_PAGE(P, N) ((void)(P), (void)(N))
#define MPC_UNPOISON_PAGE(P, N) ((void)(P), (void)(N))
#endif

namespace mpc {

/// Mutex-guarded source of PageBytes-aligned, PageBytes-sized pages.
class PagePool {
public:
  static constexpr size_t PageBytes = 64 * 1024;
  /// Pages per kernel mapping: 32 x 64 KiB = 2 MiB per mmap. Untouched
  /// pages of a run cost address space only, so a run can be generous.
  static constexpr size_t RunPages = 32;
  /// Warm pages kept for reuse: 128 x 64 KiB = 8 MiB, the smallest power
  /// of two that keeps a compile warm. Measured on a 4-core x86-64 host
  /// (perfbench seeds 1-2, Release): a compile-cold request takes about
  /// 105 pages; at 128 it faults 0 times in the median (at most 24), at
  /// 64 it faults 600-810 times, re-mapping what the cap unmapped.
  /// Larger caps only hold more memory: run-vm peak RSS read 31 MB at
  /// 128, 34 MB at 256 and 33 MB at 1,024, as the pages of its set-up
  /// compiles stay resident after their contexts are gone.
  static constexpr size_t MaxPages = 128;

  PagePool() = default;
  PagePool(const PagePool &) = delete;
  PagePool &operator=(const PagePool &) = delete;
  /// Unmaps the warm pages and the uncarved rest of the current run.
  /// Pages still out with a heap are the heap's to give back first.
  ~PagePool() {
    for (size_t I = 0; I < NumWarm; ++I) {
      MPC_UNPOISON_PAGE(Warm[I], PageBytes);
      munmap(Warm[I], PageBytes);
    }
    if (RunNext != RunEnd)
      munmap(RunNext, static_cast<size_t>(RunEnd - RunNext));
  }

  /// The process-wide pool; created on first use, never destroyed.
  static PagePool &global() {
    static PagePool *Instance = new PagePool();
    return *Instance;
  }

  /// One page handed out by take(); Warm says it came off the warm list
  /// (resident, reused) rather than fresh from a kernel run.
  struct Taken {
    void *Page;
    bool Warm;
  };

  /// Hands out a page (ownership moves to the caller): warm when one is
  /// listed, else carved from the current run, mapping a new run when it
  /// is used up. Throws std::bad_alloc when the kernel refuses a run.
  Taken take() {
    // An injected miss skips the warm list, so tests exercise the fresh
    // path while warm pages are available.
    bool SkipWarm = false;
    if (FaultInjector *FI = activeFaultInjector())
      SkipWarm = FI->missPoolTake();
    std::lock_guard<std::mutex> Lock(M);
    if (!SkipWarm && NumWarm) {
      void *Page = Warm[--NumWarm];
      MPC_UNPOISON_PAGE(Page, PageBytes);
      ++S.PagesWarm;
      return {Page, true};
    }
    if (RunNext == RunEnd)
      mapRun();
    void *Page = RunNext;
    RunNext += PageBytes;
    ++S.PagesFresh;
    return {Page, false};
  }

  /// Gives a page back; the pool owns it again. It joins the warm list,
  /// or is unmapped when the list already holds MaxPages.
  void put(void *Page) {
    {
      std::lock_guard<std::mutex> Lock(M);
      ++S.PagesPut;
      if (NumWarm < MaxPages) {
        MPC_POISON_PAGE(Page, PageBytes);
        Warm[NumWarm++] = Page;
        return;
      }
      ++S.PagesTrimmed;
    }
    munmap(Page, PageBytes);
  }

  /// Warm pages currently listed.
  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return NumWarm;
  }

  /// Lifetime traffic counters (snapshot under the lock).
  struct Stats {
    /// Kernel mappings made (RunPages pages each).
    uint64_t RunsMapped = 0;
    /// Pages handed out for the first time, carved from a run.
    uint64_t PagesFresh = 0;
    /// Pages handed out again from the warm list.
    uint64_t PagesWarm = 0;
    /// Pages given back.
    uint64_t PagesPut = 0;
    /// Pages given back while the warm list was full, and unmapped
    /// (surfaced by the compile service as "heap.pagesTrimmed").
    uint64_t PagesTrimmed = 0;

    /// Pages mapped and not unmapped: out with heaps or warm. The pool's
    /// footprint, less the untouched rest of the current run.
    uint64_t pagesHeld() const { return PagesFresh - PagesTrimmed; }
  };
  Stats stats() const {
    std::lock_guard<std::mutex> Lock(M);
    return S;
  }

private:
  /// Maps RunPages aligned pages: one page of slack, then the misaligned
  /// head and the tail beyond the run are unmapped again. Caller holds M.
  void mapRun() {
    const size_t RunBytes = RunPages * PageBytes;
    const size_t Len = RunBytes + PageBytes;
    void *Raw = mmap(nullptr, Len, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Raw == MAP_FAILED)
      throw std::bad_alloc();
    uintptr_t Lo = reinterpret_cast<uintptr_t>(Raw);
    uintptr_t Base = (Lo + PageBytes - 1) & ~(uintptr_t(PageBytes) - 1);
    size_t Head = Base - Lo;
    if (Head)
      munmap(Raw, Head);
    munmap(reinterpret_cast<char *>(Base + RunBytes), Len - Head - RunBytes);
    RunNext = reinterpret_cast<char *>(Base);
    RunEnd = RunNext + RunBytes;
    ++S.RunsMapped;
  }

  mutable std::mutex M;
  void *Warm[MaxPages]; // the warm list, a stack: Warm[0, NumWarm)
  size_t NumWarm = 0;
  char *RunNext = nullptr; // uncarved rest of the current run
  char *RunEnd = nullptr;
  Stats S;
};

} // namespace mpc

#endif // MPC_MEMSIM_PAGEPOOL_H
