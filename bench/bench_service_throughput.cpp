//===----------------------------------------------------------------------===//
// Compile-service throughput benchmark: jobs/sec through the persistent
// worker pool, comparing the service's warm path (recycled contexts +
// shared page pool) against cold per-job contexts — the measurement
// behind the "compiler as a resident service" direction (the paper's §9
// parallel-compilation future work meets a compile-server deployment).
//
// Protocol: MPC_BENCH_REPS repetitions (default 5), mean ±CV, with the
// service.* counters (contexts reused, pages shared, worker utilization)
// from the last repetition. MPC_BENCH_THREADS overrides the worker
// count (default: hardware concurrency).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/CompileService.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;

namespace {

unsigned benchThreads() {
  if (const char *Env = std::getenv("MPC_BENCH_THREADS"))
    return static_cast<unsigned>(std::atoi(Env));
  return 0; // hardware concurrency
}

/// Pre-generated job sources, cloned into fresh BatchJobs per repetition.
std::vector<std::vector<SourceInput>> makeJobSources(unsigned NumJobs,
                                                     double Scale) {
  std::vector<std::vector<SourceInput>> Jobs;
  Jobs.reserve(NumJobs);
  for (uint64_t Seed = 1; Seed <= NumJobs; ++Seed) {
    WorkloadProfile P = stdlibProfile(Scale);
    P.Seed = Seed;
    P.UnitsHint = 2;
    Jobs.push_back(generateWorkload(P));
  }
  return Jobs;
}

struct Outcome {
  SampleStats JobsPerSec;
  uint64_t ContextsReused = 0;
  uint64_t PagesShared = 0;
  uint64_t PagesMapped = 0;
  uint64_t RealAllocs = 0;
  uint64_t Utilization = 0;
  uint64_t QueueDepthPeak = 0;
  double QueueWaitSec = 0;   // summed across jobs, last repetition
  double CompileSec = 0;     // summed phase time across jobs, last repetition
};

Outcome measure(const std::vector<std::vector<SourceInput>> &JobSources,
                unsigned Reps, bool Warm) {
  std::vector<double> Rates;
  Outcome Out;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    ServiceConfig Cfg;
    Cfg.Threads = benchThreads();
    Cfg.WarmContexts = Warm;
    // This bench measures the warm-CONTEXT path; with the artifact cache
    // on, repetitions would replay instead of recompiling (that effect
    // has its own benchmark, bench_cache_warm_edit).
    Cfg.Cache.Enabled = false;
    CompileService Service(Cfg);
    Timer T;
    for (const std::vector<SourceInput> &Sources : JobSources) {
      BatchJob J;
      J.Sources = Sources;
      Service.enqueue(std::move(J));
    }
    std::vector<BatchResult> Results = Service.drain();
    double Sec = T.elapsedSeconds();
    for (const BatchResult &R : Results)
      if (R.HadErrors) {
        std::fprintf(stderr, "bench job failed:\n%s\n", R.DiagText.c_str());
        std::abort();
      }
    Rates.push_back(double(JobSources.size()) / Sec);
    Out.QueueWaitSec = 0;
    Out.CompileSec = 0;
    for (const BatchResult &R : Results) {
      Out.QueueWaitSec += R.Timings.QueueWaitSec;
      Out.CompileSec += R.Timings.totalSec();
    }
    Out.QueueDepthPeak = Service.stats().get("service.queueDepthPeak");
    Out.ContextsReused = Service.stats().get("service.contextsReused");
    Out.PagesShared = Service.stats().get("service.pagesShared");
    Out.PagesMapped = Service.stats().get("service.pagesMapped");
    Out.RealAllocs = Service.stats().get("service.realAllocs");
    Out.Utilization = Service.stats().get("service.workerUtilization");
  }
  Out.JobsPerSec = meanCv(Rates);
  return Out;
}

} // namespace

int main() {
  printHeader("Compile-service throughput — warm contexts + shared pages",
              "repo-specific service benchmark (no paper figure)");
  double Scale = benchScale(0.05);
  unsigned Reps = benchReps();
  unsigned NumJobs = 16;
  std::printf("jobs per drain: %u, workload scale: %.3f, repetitions: %u\n",
              NumJobs, Scale, Reps);

  auto JobSources = makeJobSources(NumJobs, Scale);
  // Warm-up so page-cache and allocator state spread evenly.
  measure(JobSources, 1, /*Warm=*/true);

  Outcome Cold = measure(JobSources, Reps, /*Warm=*/false);
  Outcome Warm = measure(JobSources, Reps, /*Warm=*/true);

  std::printf("\n  %-28s %10.1f jobs/s ±%.1f%%\n",
              "cold contexts, private pages", Cold.JobsPerSec.Mean,
              Cold.JobsPerSec.CvPct);
  std::printf("  %-28s %10.1f jobs/s ±%.1f%%\n",
              "warm contexts, shared pages", Warm.JobsPerSec.Mean,
              Warm.JobsPerSec.CvPct);
  std::printf("  warm/cold speedup: %+.1f%%\n",
              100.0 * (Warm.JobsPerSec.Mean / Cold.JobsPerSec.Mean - 1.0));
  std::printf("  warm run: contextsReused=%llu pagesShared=%llu "
              "workerUtilization=%llu%%\n",
              (unsigned long long)Warm.ContextsReused,
              (unsigned long long)Warm.PagesShared,
              (unsigned long long)Warm.Utilization);
  // The structural win: pages mapped from the system per drain (the
  // shared pool turns fresh mappings into reuses).
  std::printf("  pages mapped/drain: cold %llu -> warm %llu; "
              "real allocator calls: cold %llu -> warm %llu\n",
              (unsigned long long)Cold.PagesMapped,
              (unsigned long long)Warm.PagesMapped,
              (unsigned long long)Cold.RealAllocs,
              (unsigned long long)Warm.RealAllocs);

  // Queueing behavior: how long jobs sat in the admission queue versus
  // actually compiling, and how deep the queue got. The whole job set is
  // enqueued up-front, so queue wait dominates until the pool drains —
  // warm contexts shrink the compile side and with it the wait behind it.
  std::printf("  queue wait vs compile (summed): cold %.1f ms / %.1f ms, "
              "warm %.1f ms / %.1f ms; queue depth peak: %llu\n",
              1e3 * Cold.QueueWaitSec, 1e3 * Cold.CompileSec,
              1e3 * Warm.QueueWaitSec, 1e3 * Warm.CompileSec,
              (unsigned long long)Warm.QueueDepthPeak);

  jsonMetric("service_throughput", "cold_jobs_per_sec", Cold.JobsPerSec.Mean);
  jsonMetric("service_throughput", "warm_jobs_per_sec", Warm.JobsPerSec.Mean);
  jsonMetric("service_throughput", "warm_cv_pct", Warm.JobsPerSec.CvPct);
  jsonMetric("service_throughput", "contexts_reused",
             double(Warm.ContextsReused));
  jsonMetric("service_throughput", "pages_shared", double(Warm.PagesShared));
  jsonMetric("service_throughput", "cold_pages_mapped",
             double(Cold.PagesMapped));
  jsonMetric("service_throughput", "warm_pages_mapped",
             double(Warm.PagesMapped));
  jsonMetric("service_throughput", "worker_utilization_pct",
             double(Warm.Utilization));
  jsonMetric("service_throughput", "warm_queue_wait_sec", Warm.QueueWaitSec);
  jsonMetric("service_throughput", "warm_compile_sec", Warm.CompileSec);
  jsonMetric("service_throughput", "queue_depth_peak",
             double(Warm.QueueDepthPeak));
  return 0;
}
