//===----------------------------------------------------------------------===//
// Compile-service tests: the persistent worker pool with warm context
// reuse and pages recycled through the process's page source must be
// observationally identical to serial cold-context compilation.
//
//   * Determinism differential: per-job typed tree dumps and HeapStats
//     are byte-identical to a serial cold-context baseline at worker
//     counts 1, 4, and 8, over the corpus plus generated stdlib/dotty
//     workloads.
//   * Context-reuse invariance: a warm (recycled) context produces the
//     same output as a cold one, and the service actually reuses shells.
//   * Page-source stress: many small jobs churn pages through the page
//     source (service.pagesShared > 0) with no allocator corruption — the
//     SlabAllocator's internal invariants run under every job.
//   * Queue behavior: enqueue-while-running across multiple drains keeps
//     in-order delivery and accumulates counters.
//   * Artifact cache: a cache-hit drain is byte-identical to a
//     cache-disabled run at worker counts 1/4/8, error results replay
//     byte-identically, and the service counters track
//     hits/misses/bytes. Artifacts are held compressed (stored bytes at
//     most a quarter of the raw dumps), and with answers streamed to a
//     sink ahead of the cache insert, a repeat after drain() is still a
//     byte-identical hit at 1/2/4 workers.
//   * Error recovery under reset(): syntactically invalid programs
//     interleaved with valid ones across recycled contexts produce
//     diagnostics identical to cold compilation.
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "memsim/PagePool.h"
#include "support/FaultInjector.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

using namespace mpc;

namespace {

/// The job list both sides compile: every corpus program plus two
/// generated code bases (the paper's stdlib/dotty stand-ins, tiny scale).
std::vector<BatchJob> serviceJobs() {
  std::vector<BatchJob> Jobs;
  for (const CorpusProgram &P : corpusPrograms()) {
    BatchJob J;
    J.Sources.push_back({P.Name + ".scala", P.Source});
    J.WantDump = true;
    Jobs.push_back(std::move(J));
  }
  for (bool Dotty : {false, true}) {
    WorkloadProfile P = Dotty ? dottyProfile(0.02) : stdlibProfile(0.02);
    P.UnitsHint = 2;
    BatchJob J;
    J.Sources = generateWorkload(P);
    J.WantDump = true;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

void expectSameHeap(const HeapStats &A, const HeapStats &B,
                    const std::string &Label) {
  EXPECT_EQ(A.AllocatedBytes, B.AllocatedBytes) << Label;
  EXPECT_EQ(A.AllocatedObjects, B.AllocatedObjects) << Label;
  EXPECT_EQ(A.TenuredBytes, B.TenuredBytes) << Label;
  EXPECT_EQ(A.TenuredObjects, B.TenuredObjects) << Label;
  EXPECT_EQ(A.TenuredBeforeBoundaryBytes, B.TenuredBeforeBoundaryBytes)
      << Label;
  EXPECT_EQ(A.FreedBytes, B.FreedBytes) << Label;
  EXPECT_EQ(A.FreedObjects, B.FreedObjects) << Label;
  EXPECT_EQ(A.MinorGCs, B.MinorGCs) << Label;
  EXPECT_EQ(A.LiveBytes, B.LiveBytes) << Label;
  EXPECT_EQ(A.PeakLiveBytes, B.PeakLiveBytes) << Label;
}

/// The reference: a serial compileBatch — one cold context per job, no
/// pooling, no shared pages, no cache.
std::vector<BatchResult> serialColdBaseline(std::vector<BatchJob> Jobs) {
  return compileBatch(std::move(Jobs), 1);
}

/// Thread-safe Id -> Result sink for OnResult tests; counts duplicate
/// deliveries, which must never happen.
struct ResultSink {
  std::mutex M;
  std::map<uint64_t, BatchResult> Results;
  uint64_t Duplicates = 0;

  std::function<void(uint64_t, BatchResult)> callback() {
    return [this](uint64_t Id, BatchResult R) {
      std::lock_guard<std::mutex> L(M);
      if (!Results.emplace(Id, std::move(R)).second)
        ++Duplicates;
    };
  }
};

/// Distinct small generated programs with dumps: one cache entry each.
BatchJob distinctDumpJob(uint64_t Seed) {
  WorkloadProfile P = stdlibProfile(0.01);
  P.Seed = Seed;
  P.UnitsHint = 1;
  BatchJob J;
  J.Sources = generateWorkload(P);
  J.WantDump = true;
  return J;
}

TEST(CompileService, WarmSharedServiceMatchesSerialColdAtEveryThreadCount) {
  std::vector<BatchResult> Baseline = serialColdBaseline(serviceJobs());
  for (unsigned Threads : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Threads = Threads;
    Cfg.WarmContexts = true;
    CompileService Service(Cfg);
    std::vector<BatchJob> Jobs = serviceJobs();
    for (BatchJob &J : Jobs)
      Service.enqueue(std::move(J));
    std::vector<BatchResult> Results = Service.drain();
    ASSERT_EQ(Results.size(), Baseline.size()) << Threads << " threads";
    for (size_t I = 0; I < Results.size(); ++I) {
      std::string Label =
          "job " + std::to_string(I) + " @ " + std::to_string(Threads) +
          " threads";
      EXPECT_FALSE(Results[I].HadErrors)
          << Label << ": " << Results[I].DiagText;
      EXPECT_FALSE(Results[I].DumpText.empty()) << Label;
      EXPECT_EQ(Results[I].DumpText, Baseline[I].DumpText) << Label;
      expectSameHeap(Results[I].Heap, Baseline[I].Heap, Label);
    }
    EXPECT_EQ(Service.stats().get("service.jobsCompleted"), Jobs.size());
  }
}

TEST(CompileService, WarmContextProducesColdOutput) {
  // One worker, so the second round runs on recycled shells for sure.
  // Cache off: this test pins the warm-CONTEXT path, so round 2 must
  // recompile on recycled shells rather than replay cached artifacts.
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  std::vector<BatchJob> Round1 = serviceJobs();
  std::vector<BatchJob> Round2 = serviceJobs();
  for (BatchJob &J : Round1)
    Service.enqueue(std::move(J));
  std::vector<BatchResult> First = Service.drain();
  for (BatchJob &J : Round2)
    Service.enqueue(std::move(J));
  std::vector<BatchResult> Second = Service.drain();
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I) {
    EXPECT_EQ(First[I].DumpText, Second[I].DumpText) << "job " << I;
    expectSameHeap(First[I].Heap, Second[I].Heap,
                   "job " + std::to_string(I));
  }
  // Round 2 ran entirely on warm shells.
  EXPECT_GE(Service.stats().get("service.contextsReused"), First.size());
}

TEST(CompileService, PagePoolStressSharesPagesAcrossJobs) {
  ServiceConfig Cfg;
  Cfg.Threads = 4;
  CompileService Service(Cfg);
  PagePool::Stats Before = PagePool::global().stats();
  // Many small jobs: every completion gives its pages back to the page
  // source, every start pulls from it.
  unsigned NumJobs = 24;
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    WorkloadProfile P = stdlibProfile(0.01);
    P.Seed = Seed;
    P.UnitsHint = 1;
    BatchJob J;
    J.Sources = generateWorkload(P);
    Service.enqueue(std::move(J));
  }
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), NumJobs);
  for (size_t I = 0; I < Results.size(); ++I)
    EXPECT_FALSE(Results[I].HadErrors) << "job " << I;
  EXPECT_EQ(Service.stats().get("service.jobsCompleted"), NumJobs);
  // Pages taken by earlier jobs served later ones, warm.
  uint64_t Shared = Service.stats().get("service.pagesShared");
  EXPECT_GT(Shared, 0u);
  PagePool::Stats After = PagePool::global().stats();
  EXPECT_GE(After.PagesWarm - Before.PagesWarm, Shared);
  // All shells are parked, so every page the jobs took is back: the
  // source got as many pages back as it handed out.
  EXPECT_GT(PagePool::global().size(), 0u);
  EXPECT_EQ(After.PagesPut - Before.PagesPut,
            (After.PagesFresh - Before.PagesFresh) +
                (After.PagesWarm - Before.PagesWarm));
}

TEST(CompileService, EnqueueWhileRunningKeepsOrderAcrossDrains) {
  // Cache off so wave 2 exercises context recycling, not cache replay.
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  const auto &Corpus = corpusPrograms();
  auto JobFor = [&](size_t I) {
    BatchJob J;
    J.Sources.push_back(
        {Corpus[I].Name + ".scala", Corpus[I].Source});
    J.WantDump = true;
    return J;
  };
  // First wave enqueued while workers may already be chewing on it.
  std::vector<uint64_t> Ids;
  for (size_t I = 0; I < 3 && I < Corpus.size(); ++I)
    Ids.push_back(Service.enqueue(JobFor(I)));
  std::vector<BatchResult> Wave1 = Service.drain();
  ASSERT_EQ(Wave1.size(), Ids.size());
  EXPECT_EQ(Ids.front(), 0u);
  // Second wave on the same (still running) service.
  for (size_t I = 0; I < 3 && I < Corpus.size(); ++I)
    Service.enqueue(JobFor(I));
  std::vector<BatchResult> Wave2 = Service.drain();
  ASSERT_EQ(Wave2.size(), Wave1.size());
  for (size_t I = 0; I < Wave1.size(); ++I)
    EXPECT_EQ(Wave1[I].DumpText, Wave2[I].DumpText) << "job " << I;
  EXPECT_EQ(Service.stats().get("service.jobsCompleted"),
            Wave1.size() + Wave2.size());
  EXPECT_GT(Service.stats().get("service.contextsReused"), 0u);
}

//===----------------------------------------------------------------------===//
// Artifact cache
//===----------------------------------------------------------------------===//

TEST(CompileService, CacheHitDrainIsByteIdenticalToCacheDisabledRun) {
  // The correctness bar of the cache: replayed results must be
  // indistinguishable from compiled ones. Baseline = cache-disabled
  // serial service; cached services enqueue the same jobs TWICE, so the
  // second drain is served entirely from the cache.
  std::vector<BatchResult> Expected = serialColdBaseline(serviceJobs());

  for (unsigned Threads : {1u, 4u, 8u}) {
    ServiceConfig Cfg;
    Cfg.Threads = Threads;
    CompileService Service(Cfg);
    ASSERT_NE(Service.artifactCache(), nullptr);
    for (int Round = 0; Round < 2; ++Round) {
      for (BatchJob &J : serviceJobs())
        Service.enqueue(std::move(J));
      std::vector<BatchResult> Results = Service.drain();
      ASSERT_EQ(Results.size(), Expected.size());
      for (size_t I = 0; I < Results.size(); ++I) {
        std::string Label = "job " + std::to_string(I) + " round " +
                            std::to_string(Round) + " @ " +
                            std::to_string(Threads) + " threads";
        EXPECT_EQ(Results[I].DumpText, Expected[I].DumpText) << Label;
        EXPECT_EQ(Results[I].DiagText, Expected[I].DiagText) << Label;
        EXPECT_EQ(Results[I].HadErrors, Expected[I].HadErrors) << Label;
        expectSameHeap(Results[I].Heap, Expected[I].Heap, Label);
      }
    }
    // Round 1 all missed, round 2 all hit.
    EXPECT_EQ(Service.stats().get("service.cacheMisses"), Expected.size())
        << Threads << " threads";
    EXPECT_EQ(Service.stats().get("service.cacheHits"), Expected.size())
        << Threads << " threads";
    EXPECT_GT(Service.stats().get("service.cacheBytes"), 0u);
    EXPECT_EQ(Service.stats().get("service.jobsCompleted"),
              2 * Expected.size());
  }
}

TEST(CompileService, CacheKeysOnSourceContent) {
  // Same file name, different text: must miss. Different name, same
  // text: must also miss (file names appear in dumps/diagnostics).
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  CompileService Service(Cfg);
  auto Enqueue = [&](const std::string &Name, const std::string &Text) {
    BatchJob J;
    J.Sources.push_back({Name, Text});
    J.WantDump = true;
    Service.enqueue(std::move(J));
  };
  Enqueue("a.scala", corpusPrograms()[0].Source);
  Enqueue("a.scala", corpusPrograms()[1].Source);
  Enqueue("b.scala", corpusPrograms()[0].Source);
  Enqueue("a.scala", corpusPrograms()[0].Source); // the only repeat
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 4u);
  EXPECT_EQ(Results[3].DumpText, Results[0].DumpText);
  EXPECT_EQ(Service.stats().get("service.cacheMisses"), 3u);
  EXPECT_EQ(Service.stats().get("service.cacheHits"), 1u);
}

TEST(CompileService, ErrorResultsReplayDeterministically) {
  // Error results are cached: the second failing job is a hit and its
  // diagnostics replay byte-identically.
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  CompileService Service(Cfg);
  std::string Bad = "class C { def f(): Int = missing }";
  for (int I = 0; I < 2; ++I) {
    BatchJob J;
    J.Sources.push_back({"bad.scala", Bad});
    Service.enqueue(std::move(J));
  }
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_TRUE(Results[0].HadErrors);
  EXPECT_TRUE(Results[1].HadErrors);
  EXPECT_EQ(Results[0].DiagText, Results[1].DiagText);
  EXPECT_EQ(Service.stats().get("service.cacheHits"), 1u);
}

TEST(CompileService, CacheEvictionKeepsBytesUnderCap) {
  // A churn stream of distinct jobs through a deliberately tiny cache:
  // service.cacheBytes must stay under MaxBytes while evictions mount.
  const uint64_t NumJobs = 24;
  // Probe pass: measure what the whole stream occupies uncapped, then
  // cap the real cache at a third of that — evictions are then certain,
  // and every artifact still fits individually (they are similar sizes).
  uint64_t TotalBytes;
  {
    ServiceConfig Probe;
    Probe.Threads = 2;
    CompileService Service(Probe);
    for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed)
      Service.enqueue(distinctDumpJob(Seed));
    Service.drain();
    TotalBytes = Service.stats().get("service.cacheBytes");
    ASSERT_GT(TotalBytes, 0u);
    EXPECT_EQ(Service.stats().get("service.cacheEvictions"), 0u);
  }

  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.MaxBytes = TotalBytes / 3;
  CompileService Service(Cfg);
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    Service.enqueue(distinctDumpJob(Seed));
    std::vector<BatchResult> R = Service.drain();
    ASSERT_EQ(R.size(), 1u);
    EXPECT_FALSE(R[0].HadErrors);
    EXPECT_LE(Service.stats().get("service.cacheBytes"), Cfg.Cache.MaxBytes)
        << "after job " << Seed;
  }
  ASSERT_NE(Service.artifactCache(), nullptr);
  EXPECT_GT(Service.stats().get("service.cacheEvictions"), 0u);
  EXPECT_LE(Service.artifactCache()->bytes(), Cfg.Cache.MaxBytes);
  // Churned entries really left: the cache holds fewer than the stream.
  EXPECT_LT(Service.artifactCache()->entries(), NumJobs);
}

TEST(CompileService, CacheHoldsDumpsCompressed) {
  // The stored charge is the compressed size; typed-tree dumps shrink
  // about 11x, so a store that kept raw text would fail this by far.
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  CompileService Service(Cfg);
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Service.enqueue(distinctDumpJob(Seed));
  uint64_t Dumped = 0;
  for (const BatchResult &R : Service.drain())
    Dumped += R.DumpText.size() + R.DiagText.size();
  uint64_t Stored = Service.stats().get("service.cacheBytes");
  uint64_t Raw = Service.stats().get("service.cacheRawBytes");
  EXPECT_EQ(Service.stats().get("service.cacheEntries"), 12u);
  EXPECT_EQ(Raw, Dumped);
  EXPECT_GT(Stored, 0u);
  EXPECT_LE(Stored * 4, Raw);
}

TEST(CompileService, RepeatAfterDrainIsByteIdenticalHit) {
  // Answer first: the sink runs before the cache insert, yet drain()
  // waits for the insert, so a repeat enqueued after drain() always
  // hits and replays the first answer byte for byte — streamed through
  // an OnResult sink, as the server receives results.
  const uint64_t NumJobs = 6;
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(std::to_string(Threads) + " workers");
    ResultSink Sink;
    std::vector<size_t> EntriesAtAnswer; // guarded by Sink.M
    CompileService *Svc = nullptr;
    ServiceConfig Cfg;
    Cfg.Threads = Threads;
    Cfg.OnResult = [&, Store = Sink.callback()](uint64_t Id, BatchResult R) {
      size_t Entries = Svc->artifactCache()->entries();
      {
        std::lock_guard<std::mutex> L(Sink.M);
        EntriesAtAnswer.push_back(Entries);
      }
      Store(Id, std::move(R));
    };
    CompileService Service(Cfg);
    Svc = &Service;
    for (int Round = 0; Round < 2; ++Round) {
      for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed)
        Service.enqueue(distinctDumpJob(Seed));
      EXPECT_TRUE(Service.drain().empty());
      EXPECT_EQ(Service.stats().get("service.cacheHits"), Round * NumJobs);
      EXPECT_EQ(Service.stats().get("service.cacheMisses"), NumJobs);
    }
    std::lock_guard<std::mutex> L(Sink.M);
    ASSERT_EQ(Sink.Results.size(), 2 * NumJobs);
    EXPECT_EQ(Sink.Duplicates, 0u);
    for (uint64_t I = 0; I < NumJobs; ++I) {
      const BatchResult &Miss = Sink.Results[I];
      const BatchResult &Hit = Sink.Results[NumJobs + I];
      std::string Label = "job " + std::to_string(I);
      EXPECT_FALSE(Miss.DumpText.empty()) << Label;
      EXPECT_EQ(Hit.DumpText, Miss.DumpText) << Label;
      EXPECT_EQ(Hit.DiagText, Miss.DiagText) << Label;
      EXPECT_EQ(Hit.HadErrors, Miss.HadErrors) << Label;
      expectSameHeap(Hit.Heap, Miss.Heap, Label);
    }
    // One worker runs the first round in order; each answer left before
    // its own entry went in, so job I saw exactly I entries.
    if (Threads == 1) {
      for (uint64_t I = 0; I < NumJobs; ++I)
        EXPECT_EQ(EntriesAtAnswer[I], I) << "job " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Error recovery on recycled contexts
//===----------------------------------------------------------------------===//

TEST(CompileService, ErrorRecoveryOnRecycledContextsMatchesCold) {
  // Invalid programs (parse errors and type errors) interleaved with
  // valid ones, twice over, on one worker with the cache OFF — so every
  // second-round job recompiles on a shell that previously absorbed a
  // failed job. Diagnostics and dumps must match the cold baseline
  // exactly; nothing else exercises error recovery under reset().
  auto MixedJobs = [] {
    std::vector<BatchJob> Jobs;
    auto Add = [&](const std::string &Name, const std::string &Text) {
      BatchJob J;
      J.Sources.push_back({Name, Text});
      J.WantDump = true;
      Jobs.push_back(std::move(J));
    };
    Add("ok1.scala", corpusPrograms()[0].Source);
    Add("parse_err.scala", "class { def broken(");
    Add("ok2.scala", corpusPrograms()[1].Source);
    Add("type_err.scala", "class C { def f(): Int = missing }");
    Add("ok3.scala", corpusPrograms()[2].Source);
    Add("parse_err2.scala", "def f = } }");
    return Jobs;
  };

  std::vector<BatchResult> Expected = serialColdBaseline(MixedJobs());
  // Sanity: the mix really contains failures and successes.
  EXPECT_FALSE(Expected[0].HadErrors);
  EXPECT_TRUE(Expected[1].HadErrors);
  EXPECT_TRUE(Expected[3].HadErrors);

  ServiceConfig WarmCfg;
  WarmCfg.Threads = 1;
  WarmCfg.Cache.Enabled = false;
  CompileService Warm(WarmCfg);
  for (int Round = 0; Round < 2; ++Round) {
    for (BatchJob &J : MixedJobs())
      Warm.enqueue(std::move(J));
    std::vector<BatchResult> Results = Warm.drain();
    ASSERT_EQ(Results.size(), Expected.size());
    for (size_t I = 0; I < Results.size(); ++I) {
      std::string Label =
          "job " + std::to_string(I) + " round " + std::to_string(Round);
      EXPECT_EQ(Results[I].HadErrors, Expected[I].HadErrors) << Label;
      EXPECT_EQ(Results[I].DiagText, Expected[I].DiagText) << Label;
      EXPECT_EQ(Results[I].DumpText, Expected[I].DumpText) << Label;
      expectSameHeap(Results[I].Heap, Expected[I].Heap, Label);
    }
  }
  // Round 2 ran on shells recycled after absorbing failed jobs.
  EXPECT_GT(Warm.stats().get("service.contextsReused"), 0u);
}

//===----------------------------------------------------------------------===//
// Backlog accounting
//===----------------------------------------------------------------------===//

TEST(CompileService, PendingJobsTracksBacklog) {
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  CompileService Service(Cfg);
  EXPECT_EQ(Service.pendingJobs(), 0u);
  unsigned NumJobs = 6;
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    WorkloadProfile P = stdlibProfile(0.01);
    P.Seed = Seed;
    P.UnitsHint = 1;
    BatchJob J;
    J.Sources = generateWorkload(P);
    Service.enqueue(std::move(J));
  }
  // Between enqueue and drain the backlog is at most everything
  // enqueued; after the drain it must be exactly zero.
  EXPECT_LE(Service.pendingJobs(), size_t(NumJobs));
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), NumJobs);
  EXPECT_EQ(Service.pendingJobs(), 0u);
  // A second wave counts from zero again.
  BatchJob J;
  J.Sources.push_back({"ok.scala", corpusPrograms()[0].Source});
  Service.enqueue(std::move(J));
  EXPECT_LE(Service.pendingJobs(), 1u);
  Service.drain();
  EXPECT_EQ(Service.pendingJobs(), 0u);
}

//===----------------------------------------------------------------------===//
// OnResult streaming mode (what the network server builds on)
//===----------------------------------------------------------------------===//

TEST(CompileService, OnResultStreamsEveryJobExactlyOnce) {
  std::vector<BatchResult> Baseline = serialColdBaseline(serviceJobs());

  ResultSink Sink;
  ServiceConfig Cfg;
  Cfg.Threads = 4;
  Cfg.OnResult = Sink.callback();
  CompileService Service(Cfg);
  std::vector<BatchJob> Jobs = serviceJobs();
  size_t NumJobs = Jobs.size();
  for (BatchJob &J : Jobs) {
    AdmitResult A = Service.tryEnqueue(std::move(J));
    ASSERT_TRUE(A.Accepted);
  }
  // stop() returns only after the callback fired for every admitted job
  // — the guarantee graceful drain is built on. No sleep, no polling:
  // if this contract breaks, the assertions below race and fail.
  Service.stop();

  std::lock_guard<std::mutex> L(Sink.M);
  EXPECT_EQ(Sink.Duplicates, 0u);
  ASSERT_EQ(Sink.Results.size(), NumJobs);
  for (size_t I = 0; I < NumJobs; ++I) {
    auto It = Sink.Results.find(I);
    ASSERT_NE(It, Sink.Results.end()) << "job " << I << " never delivered";
    EXPECT_EQ(It->second.Status, JobStatus::Ok) << "job " << I;
    EXPECT_EQ(It->second.DumpText, Baseline[I].DumpText)
        << "streamed result diverged from drain-mode baseline, job " << I;
  }
}

TEST(CompileService, OnResultDeliversRefusalsImmediately) {
  // Gate the single worker at its first frontend entry so the queue
  // state is deterministic: A running (blocked), B queued (depth 1
  // full), C refused. C's Rejected result must stream out while the
  // worker is still blocked — refusals never wait for compile capacity.
  std::mutex GateM;
  std::condition_variable GateCv;
  bool Open = false;
  std::atomic<unsigned> Arrived{0};
  FaultConfig FC;
  FC.StageHook = [&](FaultSite Site) {
    if (Site != FaultSite::FrontendEntry)
      return;
    std::unique_lock<std::mutex> L(GateM);
    ++Arrived;
    GateCv.notify_all();
    GateCv.wait(L, [&] { return Open; });
  };
  ScopedFaultInjector Injector(FC);

  ResultSink Sink;
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MaxQueueDepth = 1;
  Cfg.Policy = QueuePolicy::RejectNewest;
  Cfg.OnResult = Sink.callback();
  CompileService Service(Cfg);

  auto TinyJob = [] {
    BatchJob J;
    J.Sources.push_back({"ok.scala", corpusPrograms()[0].Source});
    return J;
  };
  AdmitResult A = Service.tryEnqueue(TinyJob());
  ASSERT_TRUE(A.Accepted);
  {
    // Wait until the worker holds job A inside the gate.
    std::unique_lock<std::mutex> L(GateM);
    GateCv.wait(L, [&] { return Arrived.load() >= 1; });
  }
  AdmitResult B = Service.tryEnqueue(TinyJob());
  ASSERT_TRUE(B.Accepted);
  AdmitResult C = Service.tryEnqueue(TinyJob());
  EXPECT_FALSE(C.Accepted);
  ASSERT_NE(C.Id, InvalidJobId) << "refusal still owes a result";

  // C's refusal has already streamed — the worker is still blocked.
  {
    std::lock_guard<std::mutex> L(Sink.M);
    auto It = Sink.Results.find(C.Id);
    ASSERT_NE(It, Sink.Results.end());
    EXPECT_EQ(It->second.Status, JobStatus::Rejected);
    EXPECT_TRUE(It->second.HadErrors);
  }

  {
    std::lock_guard<std::mutex> L(GateM);
    Open = true;
  }
  GateCv.notify_all();
  Service.stop();

  std::lock_guard<std::mutex> L(Sink.M);
  EXPECT_EQ(Sink.Duplicates, 0u);
  ASSERT_EQ(Sink.Results.size(), 3u);
  EXPECT_EQ(Sink.Results[A.Id].Status, JobStatus::Ok);
  EXPECT_EQ(Sink.Results[B.Id].Status, JobStatus::Ok);
}

TEST(CompileService, DrainWaitsForRefusalCallback) {
  // Regression: a refused job used to count as completed before its
  // callback ran, so drain() could return while the callback for a
  // RejectNewest refusal was still running on the admitting thread.
  // Setup as above (A running behind the gate, B queued, C refused), with
  // a callback that lingers on the Rejected result.
  std::mutex GateM;
  std::condition_variable GateCv;
  bool Open = false;
  std::atomic<unsigned> Arrived{0};
  FaultConfig FC;
  FC.StageHook = [&](FaultSite Site) {
    if (Site != FaultSite::FrontendEntry)
      return;
    std::unique_lock<std::mutex> L(GateM);
    ++Arrived;
    GateCv.notify_all();
    GateCv.wait(L, [&] { return Open; });
  };
  ScopedFaultInjector Injector(FC);

  std::atomic<bool> InRefusal{false};
  std::atomic<bool> RefusalDone{false};
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MaxQueueDepth = 1;
  Cfg.Policy = QueuePolicy::RejectNewest;
  Cfg.OnResult = [&](uint64_t, BatchResult R) {
    if (R.Status != JobStatus::Rejected)
      return;
    InRefusal = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    RefusalDone = true;
  };
  CompileService Service(Cfg);

  auto TinyJob = [] {
    BatchJob J;
    J.Sources.push_back({"ok.scala", corpusPrograms()[0].Source});
    return J;
  };
  ASSERT_TRUE(Service.tryEnqueue(TinyJob()).Accepted);
  {
    std::unique_lock<std::mutex> L(GateM);
    GateCv.wait(L, [&] { return Arrived.load() >= 1; });
  }
  ASSERT_TRUE(Service.tryEnqueue(TinyJob()).Accepted);
  std::thread Producer([&] {
    AdmitResult C = Service.tryEnqueue(TinyJob());
    EXPECT_FALSE(C.Accepted);
  });
  while (!InRefusal)
    std::this_thread::yield();
  {
    std::lock_guard<std::mutex> L(GateM);
    Open = true;
  }
  GateCv.notify_all();
  // A and B finish quickly; C's callback is still asleep. drain() must
  // wait for it.
  Service.drain();
  EXPECT_TRUE(RefusalDone) << "drain() returned before a callback finished";
  Producer.join();
}

TEST(CompileService, OnResultModeDrainReturnsNothingButMergesStats) {
  ResultSink Sink;
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.OnResult = Sink.callback();
  CompileService Service(Cfg);
  unsigned NumJobs = 5;
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    WorkloadProfile P = stdlibProfile(0.01);
    P.Seed = Seed;
    P.UnitsHint = 1;
    BatchJob J;
    J.Sources = generateWorkload(P);
    ASSERT_TRUE(Service.tryEnqueue(std::move(J)).Accepted);
  }
  // Results went to the callback; drain() owes nothing but still
  // quiesces and merges the worker sheaves.
  std::vector<BatchResult> Drained = Service.drain();
  EXPECT_TRUE(Drained.empty());
  EXPECT_EQ(Service.stats().get("service.jobsCompleted"), NumJobs);
  std::lock_guard<std::mutex> L(Sink.M);
  EXPECT_EQ(Sink.Results.size(), NumJobs);
  EXPECT_EQ(Sink.Duplicates, 0u);
}

TEST(CompileService, ErrorsStayIsolatedWithoutContexts) {
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  CompileService Service(Cfg);
  BatchJob Good;
  Good.Sources.push_back({"ok.scala", corpusPrograms()[0].Source});
  BatchJob Bad;
  Bad.Sources.push_back({"bad.scala", "class C { def f(): Int = missing }"});
  Service.enqueue(std::move(Good));
  Service.enqueue(std::move(Bad));
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_FALSE(Results[0].HadErrors);
  EXPECT_TRUE(Results[1].HadErrors);
  EXPECT_NE(Results[1].DiagText.find("not found: missing"),
            std::string::npos);
}

} // namespace
