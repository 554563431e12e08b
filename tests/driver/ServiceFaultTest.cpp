//===----------------------------------------------------------------------===//
// Fault-containment tests: seeded fault injection (allocation failures,
// injected phase exceptions, artificial delays) against the compile
// service at several worker counts. The bar:
//
//   * workers survive every injected fault (all jobs complete, the
//     service keeps serving);
//   * each faulted job's context is discarded, never recycled
//     (service.contextsDiscarded accounting matches exactly);
//   * jobs compiled after the faults are byte-identical to a clean
//     serial cold run — no poisoned state leaks forward.
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "support/FaultInjector.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

std::vector<BatchJob> faultJobs() {
  std::vector<BatchJob> Jobs;
  const auto &Corpus = corpusPrograms();
  for (size_t I = 0; I < 16; ++I) {
    const CorpusProgram &P = Corpus[I % Corpus.size()];
    BatchJob J;
    J.Sources.push_back({P.Name + ".scala", P.Source});
    J.WantDump = true;
    Jobs.push_back(std::move(J));
  }
  return Jobs;
}

std::vector<BatchResult> serialCold(std::vector<BatchJob> Jobs) {
  ServiceConfig Cfg;
  Cfg.Threads = 1;
  Cfg.WarmContexts = false;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (BatchJob &J : Jobs)
    Service.enqueue(std::move(J));
  return Service.drain();
}

/// Runs the job set under \p FC at \p Threads workers, then — injector
/// gone — the same jobs again on the same (warm, possibly fault-scarred)
/// service, asserting the containment contract throughout.
void runFaultMatrix(const FaultConfig &FC, unsigned Threads,
                    const std::vector<BatchResult> &Clean) {
  std::string Label = "threads=" + std::to_string(Threads);
  ServiceConfig Cfg;
  Cfg.Threads = Threads;
  Cfg.Cache.Enabled = false; // every job must really compile
  CompileService Service(Cfg);

  uint64_t ExpectedFaults = 0;
  {
    ScopedFaultInjector Injector(FC);
    for (BatchJob &J : faultJobs())
      Service.enqueue(std::move(J));
    std::vector<BatchResult> Results = Service.drain();
    ASSERT_EQ(Results.size(), Clean.size()) << Label;

    size_t Faulted = 0, Ok = 0;
    for (size_t I = 0; I < Results.size(); ++I) {
      if (Results[I].Status == JobStatus::Faulted) {
        ++Faulted;
        EXPECT_TRUE(Results[I].HadErrors) << Label << " job " << I;
        EXPECT_NE(Results[I].DiagText.find("faulted"), std::string::npos)
            << Label << " job " << I;
      } else {
        ASSERT_EQ(Results[I].Status, JobStatus::Ok) << Label << " job " << I;
        ++Ok;
        // An un-faulted job is untouched by its neighbors' faults.
        EXPECT_EQ(Results[I].DumpText, Clean[I].DumpText)
            << Label << " job " << I;
      }
    }
    // The seeds below are chosen so both populations exist — a matrix
    // run that faults nothing (or everything) tests nothing.
    EXPECT_GT(Faulted, 0u) << Label;
    EXPECT_GT(Ok, 0u) << Label;

    // Internal consistency: every injected escape became exactly one
    // Faulted result, and every Faulted result cost one discarded shell.
    FaultInjector::Stats FS = Injector.injector().stats();
    ExpectedFaults =
        FS.StageThrows + FS.PageAllocFailures + FS.FallbackFailures;
    EXPECT_EQ(Faulted, ExpectedFaults) << Label;
    EXPECT_EQ(Service.stats().get("service.jobsFaulted"), ExpectedFaults)
        << Label;
    EXPECT_EQ(Service.stats().get("service.contextsDiscarded"),
              ExpectedFaults)
        << Label;
    EXPECT_EQ(Service.stats().get("service.jobsCompleted"), Clean.size())
        << Label;
  }

  // Injector withdrawn: the same jobs on the same service — running on a
  // mix of recycled shells and replacements for discarded ones — must be
  // byte-identical to the clean serial cold run.
  for (BatchJob &J : faultJobs())
    Service.enqueue(std::move(J));
  std::vector<BatchResult> After = Service.drain();
  ASSERT_EQ(After.size(), Clean.size()) << Label;
  for (size_t I = 0; I < After.size(); ++I) {
    EXPECT_EQ(After[I].Status, JobStatus::Ok) << Label << " job " << I;
    EXPECT_EQ(After[I].DumpText, Clean[I].DumpText) << Label << " job " << I;
    EXPECT_EQ(After[I].DiagText, Clean[I].DiagText) << Label << " job " << I;
  }
  // No new faults, no new discards after the injector left.
  EXPECT_EQ(Service.stats().get("service.jobsFaulted"), ExpectedFaults)
      << Label;
  EXPECT_EQ(Service.stats().get("service.contextsDiscarded"), ExpectedFaults)
      << Label;
}

TEST(ServiceFault, InjectedPhaseExceptionsAreContained) {
  FaultConfig FC;
  FC.Seed = 7;
  FC.StageThrowRate = 0.02;
  std::vector<BatchResult> Clean = serialCold(faultJobs());
  for (unsigned Threads : {1u, 4u, 8u})
    runFaultMatrix(FC, Threads, Clean);
}

TEST(ServiceFault, AllocationFailuresAreContained) {
  // Page-grant failures strike the allocator UNDER an allocation whose
  // simulated accounting already ran — precisely the poisoned-context
  // case the discard path exists for.
  FaultConfig FC;
  FC.Seed = 11;
  FC.PageAllocFailRate = 0.05;
  std::vector<BatchResult> Clean = serialCold(faultJobs());
  for (unsigned Threads : {1u, 4u, 8u})
    runFaultMatrix(FC, Threads, Clean);
}

TEST(ServiceFault, MixedFaultLoadIsContained) {
  FaultConfig FC;
  FC.Seed = 3;
  FC.StageThrowRate = 0.01;
  FC.PageAllocFailRate = 0.02;
  FC.StageDelayRate = 0.05;
  FC.StageDelayMicros = 100;
  std::vector<BatchResult> Clean = serialCold(faultJobs());
  for (unsigned Threads : {1u, 4u, 8u})
    runFaultMatrix(FC, Threads, Clean);
}

TEST(ServiceFault, DelaysAloneChangeNothing) {
  // Pure delay injection: no faults, no discards, outputs byte-identical
  // — the injector's observation cost is zero.
  FaultConfig FC;
  FC.StageDelayRate = 0.2;
  FC.StageDelayMicros = 100;
  ScopedFaultInjector Injector(FC);

  std::vector<BatchResult> Clean = serialCold(faultJobs());
  ServiceConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (BatchJob &J : faultJobs())
    Service.enqueue(std::move(J));
  std::vector<BatchResult> Results = Service.drain();
  ASSERT_EQ(Results.size(), Clean.size());
  for (size_t I = 0; I < Results.size(); ++I) {
    EXPECT_EQ(Results[I].Status, JobStatus::Ok) << "job " << I;
    EXPECT_EQ(Results[I].DumpText, Clean[I].DumpText) << "job " << I;
  }
  EXPECT_GT(Injector.injector().stats().StageDelays, 0u);
  EXPECT_EQ(Service.stats().get("service.jobsFaulted"), 0u);
  EXPECT_EQ(Service.stats().get("service.contextsDiscarded"), 0u);
}

TEST(ServiceFault, PoolTakeMissesForceFreshMappingsHarmlessly) {
  // Injected shared-pool misses push the allocator onto the cold
  // fresh-mapping path; outputs must not care where pages came from.
  FaultConfig FC;
  FC.PoolTakeMissRate = 0.5;
  ScopedFaultInjector Injector(FC);

  std::vector<BatchResult> Clean = serialCold(faultJobs());
  ServiceConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (int Round = 0; Round < 2; ++Round) {
    for (BatchJob &J : faultJobs())
      Service.enqueue(std::move(J));
    std::vector<BatchResult> Results = Service.drain();
    ASSERT_EQ(Results.size(), Clean.size());
    for (size_t I = 0; I < Results.size(); ++I) {
      EXPECT_EQ(Results[I].Status, JobStatus::Ok)
          << "round " << Round << " job " << I;
      EXPECT_EQ(Results[I].DumpText, Clean[I].DumpText)
          << "round " << Round << " job " << I;
    }
  }
  EXPECT_GT(Injector.injector().stats().PoolMisses, 0u);
  EXPECT_EQ(Service.stats().get("service.jobsFaulted"), 0u);
}

TEST(ServiceFault, FaultedJobLeavesCallerOwnedContextIntact) {
  // The firewall lives in runBatchJob, which compiles in a context the
  // caller owns, so a fault can never lose the context. What it must
  // still guarantee: the job becomes a Faulted result, and the deadline
  // token armed on runBatchJob's own frame is detached before it returns.
  FaultConfig FC;
  FC.Seed = 5;
  FC.StageThrowRate = 1.0; // every stage arrival throws
  ScopedFaultInjector Injector(FC);

  BatchJob J;
  J.Sources.push_back({"a.scala", corpusPrograms()[0].Source});
  J.WantDump = true;
  J.DeadlineSec = 60;
  CompilerContext Comp;
  BatchResult R = runBatchJob(std::move(J), Comp);
  EXPECT_EQ(R.Status, JobStatus::Faulted);
  EXPECT_TRUE(R.HadErrors);
  EXPECT_TRUE(R.DumpText.empty());
  EXPECT_EQ(Comp.cancelToken(), nullptr);
}

} // namespace
