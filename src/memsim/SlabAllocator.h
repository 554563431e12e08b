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
///     leaves its class and goes back to the page source, where any class
///     of any heap (or a VM arena) may reuse it, so a phase churning one
///     size class hands its pages to the next phase instead of growing
///     the footprint (Stats::PagesRetired). The page currently heading a
///     class's available list is exempt — that hysteresis keeps a
///     free/alloc ping-pong on one block from retiring and re-priming a
///     page per cycle;
///   - oversize requests fall back to the system allocator.
///
/// Pages come from a PagePool, by default PagePool::global(), the
/// process's one page source (see PagePool.h). The allocator tracks the
/// pages it holds on an intrusive list threaded through the page headers
/// and, at destruction or releaseAll(), gives them all back to the
/// source, which keeps them warm for the next heap up to its cap. The
/// allocator itself is single-threaded; only the source is shared.
///
/// Steady-state compilation leaves the allocator once per 64 KiB. The
/// backend is deliberately invisible to the simulated figures: switching
/// it off (CompilerOptions::SlabHeap = false) changes only where bytes
/// live, never what the ManagedHeap accounts — a property the
/// slab-invariance test pins byte-for-byte.
///
/// Stats reported (read through ManagedHeap::backendStats()):
///   SlabAllocs     allocations served from slab storage ("slab hits")
///   SlabFrees      slab blocks freed
///   PagesMapped    64 KiB pages this heap took from the page source
///   PagesWarm      of those, pages the source handed out warm (reused)
///   PagesRetired   pages that went fully free and went back mid-run
///   FallbackAllocs oversize allocations passed to the system allocator
///   SystemCalls    calls out of the slab: pages taken plus every
///                  allocation passed to the system allocator
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

namespace mpc {

/// Pooled small-object allocator with per-size-class page lists and
/// whole-page retirement.
class SlabAllocator {
public:
  /// Size-class granularity; every small allocation rounds up to this.
  static constexpr size_t GranuleBytes = 16;
  /// Largest slab-served request; bigger ones use the system allocator.
  static constexpr size_t MaxSmallBytes = 512;
  /// Bytes per slab page (page-aligned, so a block's page header is
  /// found by masking the block address).
  static constexpr size_t PageBytes = PagePool::PageBytes;

  /// Backend counters (real storage only — never the simulated clock).
  struct Stats {
    uint64_t SlabAllocs = 0;
    uint64_t SlabFrees = 0;
    uint64_t PagesMapped = 0;
    uint64_t PagesWarm = 0;
    uint64_t PagesRetired = 0;
    uint64_t FallbackAllocs = 0;
    uint64_t SystemCalls = 0;
  };

  /// A heap drawing its pages from \p Source, which must outlive it.
  explicit SlabAllocator(bool Enabled = true,
                         PagePool &Source = PagePool::global())
      : Source(Source), Enabled(Enabled) {}
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

  /// Gives every page this allocator holds back to the page source —
  /// the context-recycling "everything is dead now" path, where remaining
  /// live blocks die with their pages. Afterwards the allocator is as
  /// fresh as a newly constructed one (cumulative stats excepted), so
  /// setEnabled becomes legal again. O(pages held).
  void releaseAll() {
    for (PageHeader *P = HeldHead; P;) {
      PageHeader *Next = P->OwnNext;
      Source.put(P);
      P = Next;
    }
    HeldHead = nullptr;
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

  /// Fully-free page leaves its class and goes back to the page source.
  void retire(PageHeader *P) {
    unlinkAvail(P);
    unlinkHeld(P);
    ++S.PagesRetired;
    Source.put(P);
  }

  PageHeader *takePage(unsigned C) {
    // Fault point sits above the source so its firing frequency does not
    // depend on the source's warmth — an injected exhaustion hits warm
    // and fresh pages alike.
    if (FaultInjector *FI = activeFaultInjector())
      if (FI->failPageAlloc())
        throw std::bad_alloc();
    PagePool::Taken T = Source.take();
    ++S.PagesMapped;
    ++S.SystemCalls;
    if (T.Warm)
      ++S.PagesWarm;
    auto *P = new (T.Page) PageHeader();
    P->ClassIdx = C;
    linkHeld(P);
    linkAvailFront(P);
    return P;
  }

  PageHeader *Avail[NumClasses] = {}; // pages with a free block / carve room
  PageHeader *HeldHead = nullptr;     // every page we own (teardown/release)
  PagePool &Source;
  bool Enabled;
  uint64_t TotalAllocs = 0;
  Stats S;
};

} // namespace mpc

#endif // MPC_MEMSIM_SLABALLOCATOR_H
