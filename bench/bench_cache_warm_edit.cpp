//===----------------------------------------------------------------------===//
// Warm-edit cache benchmark: the served-traffic workload the artifact
// cache exists for. A corpus of N jobs is compiled round after round
// through one persistent CompileService; each warm round perturbs ONE
// unit's source (the "developer edits a file" event), so N-1 jobs hit
// the content-addressed cache and exactly one recompiles. Reported:
// jobs/sec for the cold round (all misses) vs the warm-edit rounds, the
// hit rate, and the service.cache* counters.
//
// Protocol: MPC_BENCH_REPS repetitions (default 5, fresh service and
// therefore cold cache per rep), mean ±CV, one worker per hardware
// thread.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "driver/CompileService.h"
#include "support/Timer.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

using namespace mpc;
using namespace mpc::bench;

namespace {

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
  SampleStats ColdJobsPerSec;  // round 0: every job misses
  SampleStats WarmJobsPerSec;  // later rounds: one edited job per round
  double HitRatePct = 0;       // warm rounds only
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheBytes = 0;
  uint64_t CacheEvictions = 0;
};

Outcome measure(const std::vector<std::vector<SourceInput>> &JobSources,
                unsigned Reps, unsigned WarmRounds, bool CacheEnabled) {
  std::vector<double> ColdRates, WarmRates;
  Outcome Out;
  uint64_t WarmHits = 0, WarmLookups = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    ServiceConfig Cfg;
    Cfg.Cache.Enabled = CacheEnabled;
    CompileService Service(Cfg);
    uint64_t HitsBefore = 0, MissesBefore = 0;
    for (unsigned Round = 0; Round <= WarmRounds; ++Round) {
      Timer T;
      for (size_t JobIdx = 0; JobIdx < JobSources.size(); ++JobIdx) {
        BatchJob J;
        J.Sources = JobSources[JobIdx];
        // The warm-edit event: round R > 0 touches one job's first unit,
        // leaving the other N-1 jobs byte-identical to round R-1.
        if (Round > 0 && JobIdx == (Round - 1) % JobSources.size())
          J.Sources[0].Text +=
              "\nclass Edit_r" + std::to_string(Round) + " { }\n";
        Service.enqueue(std::move(J));
      }
      std::vector<BatchResult> Results = Service.drain();
      double Sec = T.elapsedSeconds();
      for (const BatchResult &R : Results)
        if (R.HadErrors) {
          std::fprintf(stderr, "bench job failed:\n%s\n", R.DiagText.c_str());
          std::abort();
        }
      (Round == 0 ? ColdRates : WarmRates)
          .push_back(double(JobSources.size()) / Sec);
      if (Round == 0) {
        HitsBefore = Service.stats().get("service.cacheHits");
        MissesBefore = Service.stats().get("service.cacheMisses");
      }
    }
    uint64_t Hits = Service.stats().get("service.cacheHits");
    uint64_t Misses = Service.stats().get("service.cacheMisses");
    WarmHits += Hits - HitsBefore;
    WarmLookups += (Hits - HitsBefore) + (Misses - MissesBefore);
    Out.CacheHits = Hits;
    Out.CacheMisses = Misses;
    Out.CacheBytes = Service.stats().get("service.cacheBytes");
    Out.CacheEvictions = Service.stats().get("service.cacheEvictions");
  }
  Out.ColdJobsPerSec = meanCv(ColdRates);
  Out.WarmJobsPerSec = meanCv(WarmRates);
  Out.HitRatePct =
      WarmLookups ? 100.0 * double(WarmHits) / double(WarmLookups) : 0;
  return Out;
}

} // namespace

int main() {
  printHeader("Artifact cache — warm-edit workload",
              "repo-specific service benchmark (no paper figure)");
  double Scale = benchScale(0.05);
  unsigned Reps = benchReps();
  unsigned NumJobs = 16;
  unsigned WarmRounds = 4;
  std::printf("jobs per round: %u, warm rounds: %u (1 unit edited per "
              "round), workload scale: %.3f, repetitions: %u\n",
              NumJobs, WarmRounds, Scale, Reps);

  auto JobSources = makeJobSources(NumJobs, Scale);
  measure(JobSources, 1, 1, /*CacheEnabled=*/true); // warm-up

  Outcome Off = measure(JobSources, Reps, WarmRounds, /*CacheEnabled=*/false);
  Outcome On = measure(JobSources, Reps, WarmRounds, /*CacheEnabled=*/true);

  std::printf("\n  %-34s %10.1f jobs/s ±%.1f%%\n",
              "cache off, warm-edit rounds", Off.WarmJobsPerSec.Mean,
              Off.WarmJobsPerSec.CvPct);
  std::printf("  %-34s %10.1f jobs/s ±%.1f%%\n",
              "cache on, cold round (all miss)", On.ColdJobsPerSec.Mean,
              On.ColdJobsPerSec.CvPct);
  std::printf("  %-34s %10.1f jobs/s ±%.1f%%\n",
              "cache on, warm-edit rounds", On.WarmJobsPerSec.Mean,
              On.WarmJobsPerSec.CvPct);
  std::printf("  warm-edit speedup vs cold: %.1fx; vs cache-off: %.1fx\n",
              On.WarmJobsPerSec.Mean / On.ColdJobsPerSec.Mean,
              On.WarmJobsPerSec.Mean / Off.WarmJobsPerSec.Mean);
  std::printf("  warm-round hit rate: %.1f%% (expected %.1f%%: one edited "
              "job misses per round)\n",
              On.HitRatePct, 100.0 * (NumJobs - 1) / NumJobs);
  std::printf("  cacheHits=%llu cacheMisses=%llu cacheBytes=%llu "
              "cacheEvictions=%llu (last rep)\n",
              (unsigned long long)On.CacheHits,
              (unsigned long long)On.CacheMisses,
              (unsigned long long)On.CacheBytes,
              (unsigned long long)On.CacheEvictions);
  return 0;
}
