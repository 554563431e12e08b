//===----------------------------------------------------------------------===//
///
/// \file
/// The compile-service layer: a persistent worker pool that treats the
/// compiler as a long-lived service rather than a one-shot CLI run.
///
/// Ideas on top of the old batch driver:
///
///   1. Work queue with admission control. Jobs are enqueued (including
///      while the service is running) onto one mutex+condvar FIFO queue;
///      each worker dequeues ONE job at a time, so scheduling is
///      load-balanced rather than sliced. The queue is optionally bounded
///      (ServiceConfig::MaxQueueDepth): an arrival at a full queue is
///      refused — admission never blocks the caller — and completes as
///      JobStatus::Rejected: overload degrades answers, never delivery.
///
///   1b. Deadlines and fault containment. A job's soft deadline
///      (BatchJob::DeadlineSec, measured from enqueue) is enforced by
///      cooperative checkpoints at phase boundaries; an expired job
///      unwinds cleanly to JobStatus::DeadlineExceeded and its context
///      stays recyclable. Any other exception is caught by the worker
///      firewall in runBatchJob: the job fails (JobStatus::Faulted), its
///      possibly-poisoned context is discarded instead of recycled
///      (service.contextsDiscarded), and the worker lives on.
///
///   2. Warm contexts. A ContextPool recycles CompilerContext shells
///      between jobs: CompilerContext::reset() restores name table, type
///      interner, symbol world, and heap in O(live) — keeping table
///      capacities and arena slabs — instead of reconstructing everything
///      cold. Slab pages go back to the process's one page source
///      (PagePool::global()), which hands them out warm to the next job
///      on any worker, and to every other heap in the process. Name
///      ordinals, symbol ids, and the allocation clock restart exactly as
///      in a cold context, so a warm run's output is byte-identical to a
///      cold run's (pinned by CompileServiceTest).
///
///   3. Per-worker stats sheaves. Workers record their counters
///      (jobs completed, contexts reused, pages taken warm from the page
///      source, busy time) in private StatsSheaf blocks; drain() merges the
///      sheaves into the service's StatsRegistry and derives
///      service.workerUtilization — no shared counter is touched on the
///      per-job path.
///
///   4. Content-addressed artifact cache. Each dequeued job derives its
///      JobKey (hash of sources + cache-relevant options + pipeline
///      kind, see driver/Batch.h) and consults the ArtifactCache first:
///      a hit replays the stored result without touching a context at
///      all; a miss compiles and, after answering, installs a compressed
///      copy of its result. Replay is byte-identical to a cache-disabled
///      run (pinned by CompileServiceTest), counters surface as
///      service.cacheHits/cacheMisses/cacheBytes/cacheRawBytes/
///      cacheEvictions, and capacity is LRU-bounded by
///      CacheConfig::MaxBytes.
///
/// One completion path, answer first. Every job — compiled, replayed,
/// expired in the queue, refused at admission — completes the
/// same way. First its context-free BatchResult goes to the sink
/// (ServiceConfig::OnResult), called without the service lock held, so
/// the reply leaves before any bookkeeping. Then, for a job a worker
/// ran, the worker counts the job in its sheaf, recycles or discards its
/// context and installs the cache entry (compressing it). Only then does
/// the job count as completed. drain() and stop() therefore never return
/// while a sink call or that bookkeeping is still running, and a repeat
/// enqueued after drain() hits the cache. A client that re-sends a job
/// as soon as its answer arrives, before drain(), may land in that
/// window, miss, and compile again; the output is the same either way.
/// Without an OnResult the service installs a small reorder buffer as
/// the sink, and drain() hands out its results in enqueue order.
/// Contexts never leave the service: each is recycled, discarded, or
/// destroyed by the worker that ran the job.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_DRIVER_COMPILESERVICE_H
#define MPC_DRIVER_COMPILESERVICE_H

#include "driver/ArtifactCache.h"
#include "driver/Batch.h"
#include "support/Statistics.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mpc {

/// Mutex-guarded free list of reset CompilerContext shells. acquire()
/// prefers a warm shell (already reset; just adopts the job's options)
/// and falls back to constructing one; recycle() resets the shell and
/// returns it.
class ContextPool {
public:
  ContextPool() = default;
  ContextPool(const ContextPool &) = delete;
  ContextPool &operator=(const ContextPool &) = delete;

  /// A context configured with \p Opts; \p Reused reports whether it is
  /// a recycled warm shell.
  std::unique_ptr<CompilerContext> acquire(const CompilerOptions &Opts,
                                           bool &Reused);

  /// Resets \p Comp (giving its pages back to the page source) and parks
  /// the shell for the next acquire. Precondition: nothing references
  /// the context's trees anymore.
  void recycle(std::unique_ptr<CompilerContext> Comp);

  /// Warm shells currently parked.
  size_t size() const;

private:
  mutable std::mutex M;
  std::vector<std::unique_ptr<CompilerContext>> Free;
};

/// Sentinel id returned by enqueue()/tryEnqueue() after stop(): the job
/// was not admitted and is owed no result.
inline constexpr uint64_t InvalidJobId = ~uint64_t(0);

/// What admission control decided about one tryEnqueue() call.
struct AdmitResult {
  uint64_t Id = InvalidJobId;
  /// False: the job was refused (queue full, or the service is
  /// stopped). When Id != InvalidJobId the refusal still delivers a
  /// Rejected result.
  bool Accepted = false;
};

/// Service tuning knobs.
struct ServiceConfig {
  /// Worker threads; 0 = hardware concurrency (min 1).
  unsigned Threads = 0;
  /// Admission bound: queued-but-not-running jobs the service holds;
  /// an arrival at a full queue is refused (JobStatus::Rejected).
  /// 0 = unbounded: every job is admitted.
  size_t MaxQueueDepth = 0;
  /// Warm contexts: recycle CompilerContext shells between jobs through
  /// the ContextPool. Off: every job gets a fresh context (the cold
  /// baseline). Slab pages come warm from the process's page source
  /// either way.
  bool WarmContexts = true;
  /// Artifact-cache policy: consult-before-compile with LRU-bounded
  /// storage.
  CacheConfig Cache;
  /// The completion sink: every completed job — including rejected
  /// ones — is handed to this callback the moment it finishes, in
  /// *completion* order. The callback runs on the completing worker's
  /// thread (or the admitting thread for refusals), never under the
  /// service lock, and must be thread-safe; it must not call back into
  /// drain(). It runs before the job's bookkeeping (sheaf counters,
  /// context recycle, cache insert). A job counts as completed only once its
  /// callback has returned and that bookkeeping is done, so drain() waits
  /// for the callbacks of every job it covers (refusals included), and
  /// stop() returns only after the workers' callbacks for every admitted
  /// job — the graceful-drain contract a server builds on. When set,
  /// drain() still merges stats but returns no results. When unset, the
  /// service installs an in-order reorder buffer here.
  std::function<void(uint64_t Id, BatchResult Result)> OnResult;
};

/// The persistent compile service.
class CompileService {
public:
  explicit CompileService(ServiceConfig Config = ServiceConfig());
  CompileService(const CompileService &) = delete;
  CompileService &operator=(const CompileService &) = delete;
  /// Equivalent to stop(): finishes already-admitted jobs, then joins.
  ~CompileService();

  /// Admission-controlled enqueue; legal at any time, from any thread,
  /// and never blocks. Refuses the job at a full queue (MaxQueueDepth)
  /// and reports what happened. After stop() the job is refused with
  /// Id == InvalidJobId.
  AdmitResult tryEnqueue(BatchJob Job);

  /// Queues a job; legal at any time, including while workers are busy
  /// and from multiple threads. Returns the job's id (== its position in
  /// the overall enqueue order). Convenience over tryEnqueue(): a job
  /// refused by admission control still returns its id (its Rejected
  /// result is still delivered); only after stop() does it return
  /// InvalidJobId, with no result owed.
  uint64_t enqueue(BatchJob Job);

  /// Stops the service: no further admissions, already-admitted queued
  /// jobs still run, then workers exit and are joined. Idempotent and
  /// safe to race with enqueue()/tryEnqueue() from other threads (they
  /// fail cleanly). The destructor calls this.
  void stop();

  /// Blocks until every job enqueued so far is complete (its sink call
  /// has returned and its bookkeeping is done). Without an OnResult
  /// sink, returns their results in enqueue order, starting after the
  /// previous drain's last job; with one, returns nothing. Either way
  /// merges the worker sheaves into stats() and refreshes
  /// service.workerUtilization. Single consumer: call from one thread at
  /// a time (enqueue() may race it freely).
  std::vector<BatchResult> drain();

  /// Jobs enqueued but not yet completed by a worker (queued + running).
  /// Monotone within a burst, 0 after a drain completes with no new
  /// enqueues — the backlog signal an open-loop load generator throttles
  /// on. Thread-safe.
  size_t pendingJobs() const;

  /// Jobs currently sitting in the admission queue (not yet taken by a
  /// worker). Thread-safe.
  size_t queuedJobs() const;

  /// Merged service counters: service.jobsCompleted, contextsReused,
  /// pagesShared, workerUtilization (percent), the cache counters
  /// (service.cacheHits/cacheMisses/cacheEvictions, and the gauges
  /// service.cacheBytes, stored bytes, and service.cacheRawBytes, the
  /// uncompressed payload they hold), the admission/robustness counters
  /// (service.jobsRejected, jobsDeadlineExceeded, jobsFaulted,
  /// contextsDiscarded, queueDepthPeak), service.pagesMapped (pages the
  /// jobs' heaps took from the page source), and heap.pagesTrimmed (the
  /// pages the process-wide page source has unmapped, a gauge read at
  /// drain(): it counts every heap in the process, not only this
  /// service's). service.pagesShared counts the pages of
  /// service.pagesMapped that came warm. Only service-level
  /// counters live here: a job's compile report travels in its result
  /// (BatchResult::Timings, BatchResult::Heap), and the per-job context
  /// counters are not aggregated. Stable between drain() calls.
  StatsRegistry &stats() { return Stats; }

  /// The artifact cache in effect, or null (cache disabled).
  ArtifactCache *artifactCache() { return Cache.get(); }

  unsigned threadCount() const {
    return static_cast<unsigned>(Workers.size());
  }

  /// Warm context shells currently parked in the pool. At most one shell
  /// exists per worker at any instant (and discarded shells die), so this
  /// never exceeds threadCount() — the soak test's fixed point.
  size_t warmContexts() const { return Contexts.size(); }

private:
  /// One admitted-but-not-yet-running job. EnqueuedAt feeds the queue
  /// wait (reported per result and counted against the soft deadline).
  struct QueuedJob {
    uint64_t Id;
    BatchJob Job;
    std::chrono::steady_clock::time_point EnqueuedAt;
  };

  /// The default sink: parks results by id for drain() (CompileService.cpp).
  class ReorderBuffer;

  void workerMain(unsigned WorkerIdx);
  /// Replays a cache hit or compiles \p Job, hands the result to
  /// \p Answer, and only then counts the job in \p Sheaf, recycles or
  /// discards its context and installs the cache entry. The caller
  /// counts the job completed afterwards.
  void runJob(BatchJob Job, StatsSheaf &Sheaf,
              const std::function<void(BatchResult)> &Answer);
  /// Completion of a job that never reached a worker: hands \p R to the
  /// sink, then markCompleted(). Caller must not hold M.
  void complete(uint64_t Id, BatchResult R);
  /// Counts one job completed and wakes drain(). Caller must not hold M.
  void markCompleted();

  ServiceConfig Cfg;
  /// Set when Cfg.OnResult was not supplied; Cfg.OnResult then feeds it.
  std::unique_ptr<ReorderBuffer> InOrder;
  // Destruction order matters: workers join first (declared last), then
  // the context pool drops its shells.
  std::unique_ptr<ArtifactCache> Cache;
  ContextPool Contexts;

  mutable std::mutex M;
  std::condition_variable QueueCv; // workers: queue non-empty or stopping
  std::condition_variable DoneCv;  // drain(): a job completed
  /// The admission queue, taken in FIFO order.
  std::deque<QueuedJob> Queue;
  uint64_t NextJobId = 0;
  /// Jobs whose sink call has returned.
  uint64_t CompletedJobs = 0;
  bool Stopping = false;
  // Admission counters (under M); published as gauges at drain().
  uint64_t JobsRejected = 0;
  uint64_t QueueDepthPeak = 0;

  std::vector<std::unique_ptr<StatsSheaf>> Sheaves; // one per worker
  StatsRegistry Stats;
  std::chrono::steady_clock::time_point StartedAt;
  std::mutex JoinM; // serializes stop()'s join phase (idempotent stop)
  std::vector<std::thread> Workers;
};

} // namespace mpc

#endif // MPC_DRIVER_COMPILESERVICE_H
