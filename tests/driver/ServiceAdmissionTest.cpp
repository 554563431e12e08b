//===----------------------------------------------------------------------===//
// Admission-control tests for the compile service: the bounded queue that
// refuses arrivals when full, per-job deadlines (in queue and in compile),
// and the stop()/shutdown contract.
//
// Determinism technique: most tests run ONE worker gated on the fault
// injector's StageHook — the worker blocks inside its first job while the
// test builds an exact queue state, then the gate opens.
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "support/FaultInjector.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace mpc;

namespace {

BatchJob tinyJob(size_t CorpusIdx, double DeadlineSec = 0) {
  const auto &Corpus = corpusPrograms();
  const CorpusProgram &P = Corpus[CorpusIdx % Corpus.size()];
  BatchJob J;
  J.Sources.push_back({P.Name + ".scala", P.Source});
  J.WantDump = true;
  J.DeadlineSec = DeadlineSec;
  return J;
}

/// Blocks the first stage arrival (i.e. the first job a worker starts)
/// until release() — the scaffolding for building exact queue states
/// behind a busy single worker.
class WorkerGate {
public:
  FaultConfig config() {
    FaultConfig Cfg;
    Cfg.StageHook = [this](FaultSite) {
      std::unique_lock<std::mutex> Lock(M);
      if (Armed) {
        Armed = false;
        Blocked = true;
        BlockedCv.notify_all();
        ReleaseCv.wait(Lock, [this] { return Released; });
      }
    };
    return Cfg;
  }

  /// Waits until the worker is parked inside the gate.
  void awaitBlocked() {
    std::unique_lock<std::mutex> Lock(M);
    BlockedCv.wait(Lock, [this] { return Blocked; });
  }

  void release() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Released = true;
    }
    ReleaseCv.notify_all();
  }

private:
  std::mutex M;
  std::condition_variable BlockedCv, ReleaseCv;
  bool Armed = true;
  bool Blocked = false;
  bool Released = false;
};

/// Serial cold compile of one job — the unloaded reference output.
BatchResult serialReference(BatchJob Job) {
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.WarmContexts = false;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  Service.enqueue(std::move(Job));
  return std::move(Service.drain()[0]);
}

//===----------------------------------------------------------------------===//
// A full queue refuses arrivals
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, RejectNewestRefusesArrivalsAtFullQueue) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.MaxQueueDepth = 8;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);

  // Job 0 blocks inside the worker; 40 more arrive open-loop. The queue
  // holds 8, so arrivals 9.. are refused, each still owning an id and a
  // (immediately completed) Rejected slot.
  const size_t Extra = 40;
  ASSERT_TRUE(Service.tryEnqueue(tinyJob(0)).Accepted);
  Gate.awaitBlocked();
  for (size_t I = 1; I <= Extra; ++I) {
    AdmitResult A = Service.tryEnqueue(tinyJob(I));
    EXPECT_EQ(A.Accepted, I <= Cfg.MaxQueueDepth) << "arrival " << I;
    EXPECT_EQ(A.Id, I);
    EXPECT_LE(Service.queuedJobs(), Cfg.MaxQueueDepth) << "arrival " << I;
  }

  Gate.release();
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 1 + Extra); // every id owns a slot, in order

  // The accepted: job 0 (running at overload time) and the first 8 queued.
  for (size_t I = 0; I < Results.size(); ++I) {
    if (I <= Cfg.MaxQueueDepth) {
      EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
      EXPECT_FALSE(Results[I].HadErrors) << "job " << I;
      // Accepted jobs' output is byte-identical to an unloaded run.
      BatchResult Ref = serialReference(tinyJob(I));
      EXPECT_EQ(Results[I].DumpText, Ref.DumpText) << "job " << I;
      EXPECT_EQ(Results[I].DiagText, Ref.DiagText) << "job " << I;
    } else {
      EXPECT_EQ(Results[I].Status, JobStatus::Rejected) << "job " << I;
      EXPECT_TRUE(Results[I].HadErrors) << "job " << I;
      EXPECT_NE(Results[I].DiagText.find("rejected"), std::string::npos)
          << "job " << I;
      EXPECT_TRUE(Results[I].DumpText.empty()) << "job " << I;
    }
  }
  EXPECT_EQ(Service.stats().get("service.jobsRejected"),
            Extra - Cfg.MaxQueueDepth);
  EXPECT_EQ(Service.stats().get("service.queueDepthPeak"), Cfg.MaxQueueDepth);
}

//===----------------------------------------------------------------------===//
// Deadlines
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, DeadlineExpiredInQueueCompletesWithoutCompiling) {
  WorkerGate Gate;
  ScopedFaultInjector Injector(Gate.config());

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);

  Service.tryEnqueue(tinyJob(0)); // blocks the worker
  Gate.awaitBlocked();
  // 1 ms deadline, then the queue wait is forced well past it.
  Service.tryEnqueue(tinyJob(1, /*DeadlineSec=*/0.001));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  Gate.release();

  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 2u);
  EXPECT_EQ(Results[0].Status, JobStatus::Ok);
  EXPECT_EQ(Results[1].Status, JobStatus::DeadlineExceeded);
  EXPECT_TRUE(Results[1].HadErrors);
  EXPECT_NE(Results[1].DiagText.find("deadline"), std::string::npos);
  EXPECT_GE(Results[1].Timings.QueueWaitSec, 0.001);
  EXPECT_EQ(Service.stats().get("service.jobsDeadlineExceeded"), 1u);
}

TEST(ServiceAdmission, DeadlineExceededMidCompileRecyclesTheContext) {
  // Injected per-stage delays make the job reliably slower than its
  // deadline without depending on machine speed; the checkpoint at the
  // next phase boundary cancels it. The deadline must be generous enough
  // that a loaded machine still dequeues the job before expiry (an
  // in-queue expiry would never touch a context), yet far below the
  // injected per-stage delay so the job always dies mid-compile.
  FaultConfig FC;
  FC.StageDelayRate = 1.0;
  FC.StageDelayMicros = 100000; // 100 ms per stage point vs a 30 ms deadline

  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);

  {
    ScopedFaultInjector Injector(FC);
    Service.enqueue(tinyJob(0, /*DeadlineSec=*/0.03));
    std::vector<BatchResult> Results = Service.drain();
    ASSERT_EQ(Results.size(), 1u);
    EXPECT_EQ(Results[0].Status, JobStatus::DeadlineExceeded);
    EXPECT_TRUE(Results[0].HadErrors);
    EXPECT_NE(Results[0].DiagText.find("deadline"), std::string::npos);
  }

  // A deadline unwind only crosses RAII tree holders, so the shell went
  // back to the pool — the next job runs on the recycled context and is
  // byte-identical to an unloaded run.
  BatchResult Ref = serialReference(tinyJob(1));
  Service.enqueue(tinyJob(1));
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 1u);
  EXPECT_EQ(Results[0].Status, JobStatus::Ok);
  EXPECT_EQ(Results[0].DumpText, Ref.DumpText);
  EXPECT_EQ(Service.stats().get("service.contextsReused"), 1u);
  EXPECT_EQ(Service.stats().get("service.contextsDiscarded"), 0u);
  EXPECT_EQ(Service.stats().get("service.jobsDeadlineExceeded"), 1u);
}

TEST(ServiceAdmission, JobsWithoutDeadlinesNeverExpire) {
  // Delays injected everywhere, no deadline set: everything completes Ok.
  FaultConfig FC;
  FC.StageDelayRate = 1.0;
  FC.StageDelayMicros = 200;
  ScopedFaultInjector Injector(FC);

  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (size_t I = 0; I < 4; ++I)
    Service.enqueue(tinyJob(I));
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
  EXPECT_EQ(Service.stats().get("service.jobsDeadlineExceeded"), 0u);
}

//===----------------------------------------------------------------------===//
// stop() and the shutdown race
//===----------------------------------------------------------------------===//

TEST(ServiceAdmission, StopDrainsAcceptedWorkAndRefusesNewWork) {
  ServiceConfig Cfg;
  Cfg.Threads = 2;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (size_t I = 0; I < 4; ++I)
    ASSERT_TRUE(Service.tryEnqueue(tinyJob(I)).Accepted);
  Service.stop();
  // Admitted-before-stop jobs ran to completion; new work is refused
  // with no id and no slot.
  AdmitResult After = Service.tryEnqueue(tinyJob(0));
  EXPECT_FALSE(After.Accepted);
  EXPECT_EQ(After.Id, InvalidJobId);
  EXPECT_EQ(Service.enqueue(tinyJob(0)), InvalidJobId);
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), 4u);
  for (size_t I = 0; I < 4; ++I)
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
  Service.stop(); // idempotent; the destructor will be the third call
}

TEST(ServiceAdmission, EnqueueRacingShutdownIsClean) {
  // Regression for the shutdown race: a producer hammering tryEnqueue
  // while another thread stops the service. Every admission must resolve
  // consistently — accepted jobs get results, refused jobs get nothing,
  // and nothing crashes or hangs.
  for (int Round = 0; Round < 8; ++Round) {
    ServiceConfig Cfg;
    Cfg.Threads = 2;
    Cfg.Cache.Enabled = false;
    auto Service = std::make_unique<CompileService>(Cfg);

    std::atomic<bool> Go{false};
    std::atomic<uint64_t> Accepted{0};
    std::thread Producer([&] {
      while (!Go.load())
        std::this_thread::yield();
      for (int I = 0; I < 64; ++I) {
        AdmitResult A = Service->tryEnqueue(tinyJob(I));
        if (!A.Accepted)
          break; // the service stopped underneath us — expected
        ++Accepted;
      }
    });
    Go.store(true);
    // Stop somewhere in the middle of the producer's burst.
    std::this_thread::sleep_for(std::chrono::microseconds(50 * Round));
    Service->stop();
    Producer.join();
    std::vector<BatchResult> Results = Service->drain();
    EXPECT_EQ(Results.size(), Accepted.load()) << "round " << Round;
    for (const BatchResult &R : Results)
      EXPECT_EQ(R.Status, JobStatus::Ok);
    Service.reset(); // destructor after explicit stop: must be a no-op
  }
}

} // namespace
