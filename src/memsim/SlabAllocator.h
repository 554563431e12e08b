//===----------------------------------------------------------------------===//
///
/// \file
/// Size-class slab allocator backing the ManagedHeap's real storage.
///
/// The ManagedHeap models a generational GC for the paper's Figures 5/6;
/// its *simulated* allocation clock is pure accounting and never touches
/// this file. What does go through here is the real storage behind every
/// tree node (and the spilled child arrays of high-arity nodes), which
/// previously cost one std::malloc each. The slab batches them:
///
///   - sizes up to MaxSmallBytes round up to a 16-byte size class;
///   - each 64 KiB page is dedicated to one class and carries a small
///     header (free list, live count, carve cursor), so a block's page is
///     recovered by masking its address (pages are page-aligned);
///   - each class keeps a list of *available* pages (free blocks or carve
///     room); full pages drop off the list and rejoin it on the first
///     free back into them;
///   - when every block of a page has been freed, the page *retires*: it
///     leaves its class and enters a recycle pool any class may reuse, so
///     a phase churning one size class hands its pages to the next phase
///     instead of growing the footprint (Stats::PagesRetired/PagesRecycled).
///     The page currently heading a class's available list is exempt —
///     that hysteresis keeps a free/alloc ping-pong on one block from
///     retiring and re-priming a page per cycle;
///   - oversize requests fall back to the system allocator.
///
/// The recycle pool exists at two scopes. By default it is allocator-local
/// (a retired page serves this allocator's next takePage). Attaching a
/// PagePool (setPagePool) lifts it process-wide: retired pages transfer to
/// the shared, mutex-guarded pool and takePage pulls from it, so pages
/// mapped while compiling one job serve the next job in a *different*
/// context — the CompileService's warm-page path. Ownership follows the
/// page: the allocator tracks the pages it currently holds on an intrusive
/// list threaded through the page headers and, at destruction or
/// releaseAll(), frees them (no shared pool) or returns them to the shared
/// pool (which then owns them). The allocator itself stays single-threaded;
/// only the PagePool handoff is synchronized.
///
/// Steady-state compilation touches the system allocator once per 64 KiB,
/// and an idle class's emptied pages are reusable everywhere. The backend
/// is deliberately invisible to the simulated figures: switching it off
/// (CompilerOptions::SlabHeap = false) changes only where bytes live,
/// never what the ManagedHeap accounts — a property the slab-invariance
/// test pins byte-for-byte.
///
/// Stats reported (read through ManagedHeap::backendStats()):
///   SlabAllocs     allocations served from slab storage ("slab hits")
///   PagesMapped    64 KiB pages requested from the system allocator
///   PagesRetired   pages that went fully free and left their class
///   PagesRecycled  retired pages put back into service (either pool)
///   PagesToPool    pages handed to the shared PagePool
///   PagesFromPool  pages obtained from the shared PagePool
///   FallbackAllocs oversize allocations passed to the system allocator
///   SystemCalls    total system-allocator calls ("real" allocations)
///
//===----------------------------------------------------------------------===//

#ifndef MPC_MEMSIM_SLABALLOCATOR_H
#define MPC_MEMSIM_SLABALLOCATOR_H

#include "memsim/PagePool.h"
#include "support/FaultInjector.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

namespace mpc {

/// Pooled small-object allocator with per-size-class page lists and
/// whole-page retirement.
class SlabAllocator {
public:
  /// Size-class granularity; every small allocation rounds up to this.
  static constexpr size_t GranuleBytes = 16;
  /// Largest slab-served request; bigger ones use the system allocator.
  static constexpr size_t MaxSmallBytes = 512;
  /// Bytes requested from the system per slab page (page-aligned, so a
  /// block's page header is found by masking the block address).
  static constexpr size_t PageBytes = 64 * 1024;

  /// Backend counters (real storage only — never the simulated clock).
  struct Stats {
    uint64_t SlabAllocs = 0;
    uint64_t SlabFrees = 0;
    uint64_t PagesMapped = 0;
    uint64_t PagesRetired = 0;
    uint64_t PagesRecycled = 0;
    uint64_t PagesToPool = 0;
    uint64_t PagesFromPool = 0;
    uint64_t FallbackAllocs = 0;
    uint64_t SystemCalls = 0;
  };

  explicit SlabAllocator(bool Enabled = true) : Enabled(Enabled) {}
  SlabAllocator(const SlabAllocator &) = delete;
  SlabAllocator &operator=(const SlabAllocator &) = delete;
  ~SlabAllocator() { releaseAll(); }

  /// Turns the slab on/off. Only legal before the first allocation (the
  /// free path must agree with the alloc path on who owns each block).
  void setEnabled(bool E) {
    assert(TotalAllocs == 0 && "slab toggle after first allocation");
    Enabled = E;
  }
  bool enabled() const { return Enabled; }

  /// Attaches the shared page pool (null detaches). Only legal while the
  /// allocator holds no pages, so every held page has one unambiguous
  /// release destination.
  void setPagePool(PagePool *Pool) {
    assert(!HeldHead && "page-pool switch while pages are held");
    Shared = Pool;
  }
  PagePool *pagePool() const { return Shared; }

  void *allocate(size_t Size) {
    ++TotalAllocs;
    if (!Enabled || Size > MaxSmallBytes) {
      if (FaultInjector *FI = activeFaultInjector())
        if (FI->failFallbackAlloc())
          throw std::bad_alloc();
      ++S.SystemCalls;
      if (Enabled)
        ++S.FallbackAllocs;
      return std::malloc(Size);
    }
    unsigned C = classOf(Size);
    ++S.SlabAllocs;
    PageHeader *P = Avail[C];
    if (!P)
      P = takePage(C);
    void *Block;
    if (P->Free) {
      Block = P->Free;
      P->Free = P->Free->Next;
    } else {
      Block = blockAt(P, P->Carved++);
    }
    ++P->Live;
    if (!P->Free && P->Carved == capacityOf(C))
      unlinkAvail(P); // page full: out of the allocation path
    return Block;
  }

  void deallocate(void *Ptr, size_t Size) {
    if (!Ptr)
      return;
    if (!Enabled || Size > MaxSmallBytes) {
      std::free(Ptr);
      return;
    }
    ++S.SlabFrees;
    auto *P = pageOf(Ptr);
    auto *N = static_cast<FreeNode *>(Ptr);
    N->Next = P->Free;
    P->Free = N;
    --P->Live;
    if (!P->InAvail) {
      // Was full; the freed block makes it available again. Re-enter
      // BEHIND the class's active head page: the head keeps absorbing
      // allocations, and if this page drains completely it retires
      // instead of pinning a nearly-empty page as the active one.
      linkAvailAfterHead(P);
    } else if (P->Live == 0 && Avail[P->ClassIdx] != P) {
      retire(P);
    }
  }

  /// Returns every page this allocator holds — the context-recycling
  /// "everything is dead now" path, where remaining live blocks die with
  /// their pages. Pages go back to the shared pool when one is attached,
  /// otherwise to the system. Afterwards the allocator is as fresh as a
  /// newly constructed one (cumulative stats excepted), so setEnabled /
  /// setPagePool become legal again. O(pages held).
  void releaseAll() {
    for (PageHeader *P = HeldHead; P;) {
      PageHeader *Next = P->OwnNext;
      if (Shared) {
        ++S.PagesToPool;
        Shared->put(P);
      } else {
        std::free(P);
      }
      P = Next;
    }
    HeldHead = nullptr;
    LocalPool.clear();
    for (unsigned C = 0; C < NumClasses; ++C)
      Avail[C] = nullptr;
    TotalAllocs = 0;
  }

  const Stats &stats() const { return S; }

private:
  struct FreeNode {
    FreeNode *Next;
  };
  /// Lives at the start of every page; blocks follow at HeaderBytes.
  struct PageHeader {
    PageHeader *Prev = nullptr; // available-list links (null = unlinked)
    PageHeader *Next = nullptr;
    PageHeader *OwnPrev = nullptr; // held-list links (all pages we own)
    PageHeader *OwnNext = nullptr;
    FreeNode *Free = nullptr;   // freed blocks of this page
    uint32_t Live = 0;          // blocks currently handed out
    uint32_t Carved = 0;        // blocks carved from the bump region
    uint32_t ClassIdx = 0;
    bool InAvail = false;
  };
  static constexpr size_t HeaderBytes = 64;
  static_assert(sizeof(PageHeader) <= HeaderBytes, "header fits its slot");
  static constexpr unsigned NumClasses = MaxSmallBytes / GranuleBytes;

  static unsigned classOf(size_t Size) {
    return Size == 0 ? 0
                     : static_cast<unsigned>((Size - 1) / GranuleBytes);
  }
  static size_t blockBytesOf(unsigned C) { return (C + 1) * GranuleBytes; }
  static uint32_t capacityOf(unsigned C) {
    return static_cast<uint32_t>((PageBytes - HeaderBytes) /
                                 blockBytesOf(C));
  }
  static void *blockAt(PageHeader *P, uint32_t Idx) {
    return reinterpret_cast<char *>(P) + HeaderBytes +
           size_t(Idx) * blockBytesOf(P->ClassIdx);
  }
  static PageHeader *pageOf(void *Block) {
    return reinterpret_cast<PageHeader *>(
        reinterpret_cast<uintptr_t>(Block) & ~(uintptr_t(PageBytes) - 1));
  }

  void linkAvailFront(PageHeader *P) {
    P->Prev = nullptr;
    P->Next = Avail[P->ClassIdx];
    if (P->Next)
      P->Next->Prev = P;
    Avail[P->ClassIdx] = P;
    P->InAvail = true;
  }

  /// Links \p P as the second page of its class (or the head when the
  /// list is empty) — see deallocate() for why full pages re-enter here.
  void linkAvailAfterHead(PageHeader *P) {
    PageHeader *Head = Avail[P->ClassIdx];
    if (!Head) {
      linkAvailFront(P);
      return;
    }
    P->Prev = Head;
    P->Next = Head->Next;
    if (P->Next)
      P->Next->Prev = P;
    Head->Next = P;
    P->InAvail = true;
  }

  void unlinkAvail(PageHeader *P) {
    if (P->Prev)
      P->Prev->Next = P->Next;
    else
      Avail[P->ClassIdx] = P->Next;
    if (P->Next)
      P->Next->Prev = P->Prev;
    P->Prev = P->Next = nullptr;
    P->InAvail = false;
  }

  void linkHeld(PageHeader *P) {
    P->OwnPrev = nullptr;
    P->OwnNext = HeldHead;
    if (HeldHead)
      HeldHead->OwnPrev = P;
    HeldHead = P;
  }

  void unlinkHeld(PageHeader *P) {
    if (P->OwnPrev)
      P->OwnPrev->OwnNext = P->OwnNext;
    else
      HeldHead = P->OwnNext;
    if (P->OwnNext)
      P->OwnNext->OwnPrev = P->OwnPrev;
    P->OwnPrev = P->OwnNext = nullptr;
  }

  /// Fully-free page leaves its class for the recycle pool: the shared
  /// PagePool when attached (ownership transfers), else the local pool
  /// (page stays held).
  void retire(PageHeader *P) {
    unlinkAvail(P);
    ++S.PagesRetired;
    if (Shared) {
      unlinkHeld(P);
      ++S.PagesToPool;
      Shared->put(P);
    } else {
      LocalPool.push_back(P);
    }
  }

  PageHeader *takePage(unsigned C) {
    // Fault point sits above the pool lookups so its firing frequency does
    // not depend on pool warmth — an injected exhaustion hits warm and
    // cold page paths alike.
    if (FaultInjector *FI = activeFaultInjector())
      if (FI->failPageAlloc())
        throw std::bad_alloc();
    void *Mem = nullptr;
    bool WasHeld = false;
    if (!LocalPool.empty()) {
      Mem = LocalPool.back();
      LocalPool.pop_back();
      ++S.PagesRecycled;
      WasHeld = true;
    } else if (Shared && (Mem = Shared->take())) {
      ++S.PagesRecycled;
      ++S.PagesFromPool;
    } else {
      Mem = std::aligned_alloc(PageBytes, PageBytes);
      ++S.PagesMapped;
      ++S.SystemCalls;
    }
    auto *P = static_cast<PageHeader *>(Mem);
    if (WasHeld)
      unlinkHeld(P); // header re-init below would wipe the links
    P = new (Mem) PageHeader();
    P->ClassIdx = C;
    linkHeld(P);
    linkAvailFront(P);
    return P;
  }

  PageHeader *Avail[NumClasses] = {}; // pages with a free block / carve room
  PageHeader *HeldHead = nullptr;     // every page we own (teardown/release)
  std::vector<void *> LocalPool;      // retired pages awaiting reuse (no
                                      // shared pool attached)
  PagePool *Shared = nullptr;
  bool Enabled;
  uint64_t TotalAllocs = 0;
  Stats S;
};

} // namespace mpc

#endif // MPC_MEMSIM_SLABALLOCATOR_H
