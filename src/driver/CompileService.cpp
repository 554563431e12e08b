#include "driver/CompileService.h"

#include "memsim/PagePool.h"
#include "support/Timer.h"

#include <map>
#include <optional>

using namespace mpc;

//===----------------------------------------------------------------------===//
// ContextPool
//===----------------------------------------------------------------------===//

std::unique_ptr<CompilerContext>
ContextPool::acquire(const CompilerOptions &Opts, bool &Reused) {
  {
    std::lock_guard<std::mutex> Lock(M);
    if (!Free.empty()) {
      std::unique_ptr<CompilerContext> Comp = std::move(Free.back());
      Free.pop_back();
      // The shell was reset at recycle time; only the new job's options
      // need applying (legal: the heap is empty).
      Comp->adoptOptions(Opts);
      Reused = true;
      return Comp;
    }
  }
  Reused = false;
  return std::make_unique<CompilerContext>(Opts);
}

void ContextPool::recycle(std::unique_ptr<CompilerContext> Comp) {
  // Reset eagerly (outside the lock): pages flow back to the page source
  // right away, where a concurrently running job can pick them up.
  Comp->reset();
  std::lock_guard<std::mutex> Lock(M);
  Free.push_back(std::move(Comp));
}

size_t ContextPool::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Free.size();
}

//===----------------------------------------------------------------------===//
// ReorderBuffer
//===----------------------------------------------------------------------===//

/// The default sink. Results arrive in completion order and are parked
/// by id; drain() takes them out in id order. Every id below ReadyEnd
/// has arrived, so a complete prefix is visible without a scan.
class CompileService::ReorderBuffer {
public:
  void put(uint64_t Id, BatchResult R) {
    std::lock_guard<std::mutex> Lock(M);
    Parked.emplace(Id, std::move(R));
    while (Parked.count(ReadyEnd))
      ++ReadyEnd;
  }

  /// One past the longest run of arrived ids starting at the first id
  /// not yet taken.
  uint64_t readyEnd() const {
    std::lock_guard<std::mutex> Lock(M);
    return ReadyEnd;
  }

  /// Moves out every parked result with id below \p End, in id order.
  /// Precondition: End <= readyEnd().
  std::vector<BatchResult> take(uint64_t End) {
    std::lock_guard<std::mutex> Lock(M);
    std::vector<BatchResult> Out;
    for (auto It = Parked.begin(); It != Parked.end() && It->first < End;
         It = Parked.erase(It))
      Out.push_back(std::move(It->second));
    return Out;
  }

private:
  mutable std::mutex M;
  std::map<uint64_t, BatchResult> Parked;
  uint64_t ReadyEnd = 0;
};

//===----------------------------------------------------------------------===//
// CompileService
//===----------------------------------------------------------------------===//

CompileService::CompileService(ServiceConfig Config)
    : Cfg(std::move(Config)),
      Cache(Cfg.Cache.Enabled ? std::make_unique<ArtifactCache>(Cfg.Cache)
                              : nullptr),
      StartedAt(std::chrono::steady_clock::now()) {
  if (!Cfg.OnResult) {
    InOrder = std::make_unique<ReorderBuffer>();
    Cfg.OnResult = [Buf = InOrder.get()](uint64_t Id, BatchResult R) {
      Buf->put(Id, std::move(R));
    };
  }
  unsigned N = Cfg.Threads;
  if (N == 0) {
    N = std::thread::hardware_concurrency();
    if (N == 0)
      N = 1;
  }
  Sheaves.reserve(N);
  Workers.reserve(N);
  for (unsigned I = 0; I < N; ++I)
    Sheaves.push_back(std::make_unique<StatsSheaf>());
  for (unsigned I = 0; I < N; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });
}

CompileService::~CompileService() { stop(); }

void CompileService::stop() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Stopping = true;
  }
  // Wake every worker: each drains the already-admitted queue and exits.
  QueueCv.notify_all();
  // The join phase is guarded separately (never under M — workers need M
  // to finish) and is idempotent: a second stop(), or the destructor
  // after an explicit stop(), finds nothing joinable.
  std::lock_guard<std::mutex> JoinLock(JoinM);
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
}

void CompileService::complete(uint64_t Id, BatchResult R) {
  Cfg.OnResult(Id, std::move(R));
  markCompleted();
}

void CompileService::markCompleted() {
  {
    std::lock_guard<std::mutex> Lock(M);
    ++CompletedJobs;
  }
  DoneCv.notify_all();
}

namespace {

/// The result of a job that never reached the compiler.
BatchResult refusedResult(JobStatus Status, const char *Why,
                          double QueueWaitSec) {
  BatchResult R;
  R.Status = Status;
  R.HadErrors = true;
  R.DiagText = std::string("error: ") + Why + "\n";
  R.Timings.QueueWaitSec = QueueWaitSec;
  return R;
}

double secondsSince(std::chrono::steady_clock::time_point T) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T)
      .count();
}

} // namespace

AdmitResult CompileService::tryEnqueue(BatchJob Job) {
  AdmitResult A;
  // Jobs displaced by ShedOldest; completed once M is released.
  std::vector<QueuedJob> Shed;
  {
    std::lock_guard<std::mutex> Lock(M);
    if (Stopping)
      return A; // refused: no id, no result owed
    if (Cfg.MaxQueueDepth != 0 && queueDepthLocked() >= Cfg.MaxQueueDepth) {
      switch (Cfg.Policy) {
      case QueuePolicy::RejectNewest:
        // The arrival is refused but still owns an id: its Rejected
        // result completes below, so the id sequence has no gaps.
        ++JobsRejected;
        A.Id = NextJobId++;
        break;
      case QueuePolicy::ShedOldest:
        // Make room by completing the oldest queued job as Rejected —
        // batch lane first, so interactive work is the last to be shed.
        while (queueDepthLocked() >= Cfg.MaxQueueDepth) {
          std::deque<QueuedJob> &Lane =
              !BatchLane.empty() ? BatchLane : InteractiveLane;
          Shed.push_back(std::move(Lane.front()));
          Lane.pop_front();
        }
        JobsShed += Shed.size();
        A.JobsShed = Shed.size();
        break;
      }
    }
    if (A.Id == InvalidJobId) {
      A.Id = NextJobId++;
      A.Accepted = true;
      std::deque<QueuedJob> &Lane =
          Job.Priority == JobPriority::Interactive ? InteractiveLane
                                                   : BatchLane;
      Lane.push_back(
          QueuedJob{A.Id, std::move(Job), std::chrono::steady_clock::now()});
      if (queueDepthLocked() > QueueDepthPeak)
        QueueDepthPeak = queueDepthLocked();
    }
  }
  if (A.Accepted)
    QueueCv.notify_one();
  else
    complete(A.Id, refusedResult(JobStatus::Rejected,
                                 "compile job rejected: queue full", 0));
  for (QueuedJob &Victim : Shed)
    complete(Victim.Id,
             refusedResult(
                 JobStatus::Rejected,
                 "compile job shed: queue full, displaced by a newer job",
                 secondsSince(Victim.EnqueuedAt)));
  return A;
}

uint64_t CompileService::enqueue(BatchJob Job) {
  return tryEnqueue(std::move(Job)).Id;
}

void CompileService::workerMain(unsigned WorkerIdx) {
  StatsSheaf &Sheaf = *Sheaves[WorkerIdx];
  while (true) {
    uint64_t Id;
    uint64_t Seq;
    double QueueWait;
    BatchJob Job;
    {
      std::unique_lock<std::mutex> Lock(M);
      QueueCv.wait(Lock, [this] {
        return Stopping || !InteractiveLane.empty() || !BatchLane.empty();
      });
      if (InteractiveLane.empty() && BatchLane.empty())
        return; // Stopping, and nothing left to do
      // One dequeue per JOB (not per slice): whichever worker frees up
      // first takes the next job, so long jobs don't starve the rest.
      // Lane choice: interactive first, except that after InteractiveBurst
      // consecutive interactive takes with batch work waiting, the batch
      // lane gets the next slot (anti-starvation).
      bool TakeBatch =
          !BatchLane.empty() &&
          (InteractiveLane.empty() || SinceBatch >= InteractiveBurst);
      std::deque<QueuedJob> &Lane = TakeBatch ? BatchLane : InteractiveLane;
      if (TakeBatch)
        SinceBatch = 0;
      else
        ++SinceBatch;
      QueuedJob QJ = std::move(Lane.front());
      Lane.pop_front();
      Id = QJ.Id;
      Job = std::move(QJ.Job);
      Seq = DequeueCounter++;
      QueueWait = secondsSince(QJ.EnqueuedAt);
    }

    // Stamps this request's own fields (on a cache replay too: the
    // compile-stage timings are the cached copy, the wait is this
    // request's) and hands the result to the sink.
    auto Answer = [&](BatchResult R) {
      R.DequeueSeq = Seq;
      R.Timings.QueueWaitSec = QueueWait;
      Cfg.OnResult(Id, std::move(R));
    };
    double Deadline = Job.DeadlineSec;
    if (Deadline > 0 && QueueWait >= Deadline) {
      // The deadline (measured from enqueue) expired while the job sat in
      // the queue: complete it without compiling — and without consulting
      // the cache, so an expired job's status never depends on what
      // happens to be cached.
      Answer(refusedResult(JobStatus::DeadlineExceeded,
                           "job deadline exceeded while queued", 0));
      Sheaf.add("service.jobsCompleted", 1);
      Sheaf.add("service.jobsDeadlineExceeded", 1);
    } else {
      // The remaining budget is what runBatchJob arms as the in-compile
      // deadline: queue wait counts against the job's total allowance.
      if (Deadline > 0)
        Job.DeadlineSec = Deadline - QueueWait;
      runJob(std::move(Job), Sheaf, Answer);
    }
    // Only now, after the job's post-answer bookkeeping: a drain() that
    // returns has seen every context recycle and cache insert it covers.
    markCompleted();
  }
}

void CompileService::runJob(BatchJob Job, StatsSheaf &Sheaf,
                            const std::function<void(BatchResult)> &Answer) {
  Timer Busy;

  // Consult the artifact cache first: a hit replays the stored result
  // without touching (or even acquiring) a context.
  JobKey Key;
  if (Cache) {
    Key = jobKeyFor(Job);
    BatchResult Hit;
    if (Cache->lookup(Key, Hit)) {
      Answer(std::move(Hit));
      Sheaf.add("service.jobsCompleted", 1);
      Sheaf.add("service.cacheHits", 1);
      Sheaf.add("service.busyMicros",
                static_cast<uint64_t>(Busy.elapsedSeconds() * 1e6));
      return;
    }
    Sheaf.add("service.cacheMisses", 1);
  }

  bool Reused = false;
  std::unique_ptr<CompilerContext> Comp =
      Cfg.WarmContexts ? Contexts.acquire(Job.Options, Reused)
                       : std::make_unique<CompilerContext>(Job.Options);
  const SlabAllocator::Stats &Backend = Comp->heap().backendStats();
  uint64_t PagesWarm0 = Backend.PagesWarm;
  uint64_t PagesMapped0 = Backend.PagesMapped;

  BatchResult R = runBatchJob(std::move(Job), *Comp);
  JobStatus Status = R.Status;
  // Only completed compiles are cached: a rejected/cancelled/faulted
  // result describes this request's scheduling fate, not the job's
  // content, and must never replay for an equal key. The cache's copy is
  // taken now, because the answer moves R; compressing it waits until
  // after the answer has left.
  std::optional<BatchResult> ForCache;
  if (Cache && Status == JobStatus::Ok)
    ForCache = R;
  Answer(std::move(R));

  Sheaf.add("service.jobsCompleted", 1);
  if (Reused)
    Sheaf.add("service.contextsReused", 1);
  if (Status == JobStatus::DeadlineExceeded)
    Sheaf.add("service.jobsDeadlineExceeded", 1);
  else if (Status == JobStatus::Faulted)
    Sheaf.add("service.jobsFaulted", 1);
  Sheaf.add("service.pagesShared", Backend.PagesWarm - PagesWarm0);
  Sheaf.add("service.pagesMapped", Backend.PagesMapped - PagesMapped0);

  if (Status == JobStatus::Faulted) {
    // Fault containment: the exception's throw site is unknown (it may
    // have split an allocation from its accounting), so the shell counts
    // as poisoned. Destroying it gives its pages back to the page source
    // wholesale, without reset()'s clean-heap precondition; the context
    // pool simply builds a fresh shell next time. A
    // DeadlineExceeded unwind, by contrast, only ever crosses RAII tree
    // holders, so that shell recycles normally.
    Comp.reset();
    Sheaf.add("service.contextsDiscarded", 1);
  } else if (Cfg.WarmContexts) {
    Contexts.recycle(std::move(Comp));
  }
  if (ForCache)
    Cache->insert(Key, std::move(*ForCache));

  Sheaf.add("service.busyMicros",
            static_cast<uint64_t>(Busy.elapsedSeconds() * 1e6));
}

size_t CompileService::pendingJobs() const {
  std::lock_guard<std::mutex> Lock(M);
  return static_cast<size_t>(NextJobId - CompletedJobs);
}

size_t CompileService::queuedJobs() const {
  std::lock_guard<std::mutex> Lock(M);
  return queueDepthLocked();
}

std::vector<BatchResult> CompileService::drain() {
  uint64_t Target;
  uint64_t Rejected, Shed, DepthPeak;
  {
    std::unique_lock<std::mutex> Lock(M);
    Target = NextJobId;
    // The reorder-buffer clause only matters when enqueue() races this
    // drain: a job admitted after Target was read may complete before an
    // earlier one, so the count alone does not prove the prefix is in.
    DoneCv.wait(Lock, [&] {
      return CompletedJobs >= Target &&
             (!InOrder || InOrder->readyEnd() >= Target);
    });
    Rejected = JobsRejected;
    Shed = JobsShed;
    DepthPeak = QueueDepthPeak;
  }
  std::vector<BatchResult> Results;
  if (InOrder)
    Results = InOrder->take(Target);

  // Merge the per-worker sheaves; each drain folds only the deltas since
  // the previous one, so the registry accumulates lifetime totals.
  for (auto &Sheaf : Sheaves)
    Sheaf->drainInto(Stats);
  double Capacity =
      secondsSince(StartedAt) * static_cast<double>(Workers.size());
  double BusySec = static_cast<double>(Stats.get("service.busyMicros")) / 1e6;
  Stats.counter("service.workerUtilization") =
      Capacity > 0 ? static_cast<uint64_t>(100.0 * BusySec / Capacity) : 0;
  // Occupancy gauges (not deltas): refreshed to the current value each
  // drain. Hits/misses accumulate through the sheaves above; the
  // admission counters are service-lifetime totals read under M.
  Stats.counter("service.jobsRejected") = Rejected;
  Stats.counter("service.jobsShed") = Shed;
  Stats.counter("service.queueDepthPeak") = DepthPeak;
  if (Cache) {
    ArtifactCache::Stats CS = Cache->stats();
    Stats.counter("service.cacheBytes") = CS.Bytes;
    Stats.counter("service.cacheRawBytes") = CS.RawBytes;
    Stats.counter("service.cacheEntries") = CS.Entries;
    Stats.counter("service.cacheEvictions") = CS.Evictions;
    Stats.counter("service.cacheIntegrityRejects") = CS.IntegrityRejects;
  }
  Stats.counter("heap.pagesTrimmed") =
      PagePool::global().stats().PagesTrimmed;
  return Results;
}
