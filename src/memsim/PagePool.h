//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe pool of retired slab pages shared across compiler
/// contexts.
///
/// Each SlabAllocator recycles its own fully-freed pages; attaching a
/// PagePool lifts that recycle pool out of the allocator so pages mapped
/// while compiling one job serve the next job — possibly on a different
/// worker thread with a different CompilerContext. The pool owns every
/// page it holds: an allocator that puts a page in transfers ownership,
/// and takes ownership back when it takes one out, so contexts can come
/// and go while the pool (owned by the CompileService) keeps the memory
/// alive.
///
/// Inventory is bounded: PagePool::MaxPages caps how many pages the pool
/// keeps; a put() beyond the cap frees the page back to the system
/// ("trim", counted in Stats::PagesTrimmed), so one burst of large jobs
/// cannot pin its peak footprint for the life of the service.
///
/// All operations are mutex-guarded; they run once per 64 KiB page, never
/// per allocation, so the lock is far off the allocation fast path.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_MEMSIM_PAGEPOOL_H
#define MPC_MEMSIM_PAGEPOOL_H

#include "support/FaultInjector.h"

#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <vector>

namespace mpc {

/// Mutex-guarded stack of page-sized blocks (see SlabAllocator::PageBytes).
class PagePool {
public:
  /// Pages the pool may hold at once: 1024 x 64 KiB = 64 MiB. A put()
  /// that would exceed the cap frees the page to the system instead
  /// ("trim"), so a burst of large jobs cannot pin its peak footprint.
  static constexpr size_t MaxPages = 1024;

  PagePool() = default;
  PagePool(const PagePool &) = delete;
  PagePool &operator=(const PagePool &) = delete;
  ~PagePool() {
    for (void *Page : Pages)
      std::free(Page);
  }

  /// Takes a page out of the pool (ownership moves to the caller), or
  /// returns null when the pool is empty.
  void *take() {
    // Injected miss simulates an exhausted pool: the caller falls through
    // to a fresh system mapping, exercising the cold-page path on demand.
    if (FaultInjector *FI = activeFaultInjector())
      if (FI->missPoolTake())
        return nullptr;
    std::lock_guard<std::mutex> Lock(M);
    if (Pages.empty())
      return nullptr;
    void *Page = Pages.back();
    Pages.pop_back();
    ++NumTaken;
    return Page;
  }

  /// Puts a page into the pool; the pool now owns it. When the pool is
  /// at MaxPages, the page is trimmed (freed to the system) instead.
  void put(void *Page) {
    std::lock_guard<std::mutex> Lock(M);
    if (Pages.size() >= MaxPages) {
      std::free(Page);
      ++NumTrimmed;
      return;
    }
    Pages.push_back(Page);
    ++NumPut;
  }

  /// Pages currently held.
  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Pages.size();
  }

  /// Lifetime traffic counters (snapshot under the lock).
  struct Stats {
    uint64_t PagesPut = 0;
    uint64_t PagesTaken = 0;
    /// Pages freed to the system because the pool was at MaxPages
    /// (surfaced by the compile service as "heap.pagesTrimmed").
    uint64_t PagesTrimmed = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> Lock(M);
    return {NumPut, NumTaken, NumTrimmed};
  }

private:
  mutable std::mutex M;
  std::vector<void *> Pages;
  uint64_t NumPut = 0;
  uint64_t NumTaken = 0;
  uint64_t NumTrimmed = 0;
};

} // namespace mpc

#endif // MPC_MEMSIM_PAGEPOOL_H
