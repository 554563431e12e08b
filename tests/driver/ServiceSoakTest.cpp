//===----------------------------------------------------------------------===//
// Soak test: a long-lived service under a randomized mixed stream —
// valid jobs, invalid jobs (parse/type errors), deadline-doomed jobs,
// and low-rate fault injection — must reach a resource fixed point:
//
//   * the page source's fresh pages (pages it carved from kernel runs)
//     plateau after warmup: steady-state rounds run on warm, recycled
//     pages, so a fault/error mix cannot slowly grow the footprint;
//   * between rounds every page is back with the source, so the pages it
//     holds mapped never exceed its warm cap;
//   * the warm-context pool never exceeds the worker count.
//
// Bounded by construction (fixed rounds of tiny jobs, wall time a few
// seconds) so it can ride in the sanitizer CI jobs.
//===----------------------------------------------------------------------===//

#include "driver/CompileService.h"
#include "memsim/PagePool.h"
#include "support/FaultInjector.h"
#include "support/Rng.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

TEST(ServiceSoak, MixedFaultedStreamReachesResourceFixedPoint) {
  // Low-rate faults + per-stage delays, deterministic from the seed.
  FaultConfig FC;
  FC.Seed = 17;
  FC.StageThrowRate = 0.01;
  FC.PageAllocFailRate = 0.005;
  FC.StageDelayRate = 0.02;
  FC.StageDelayMicros = 50;
  ScopedFaultInjector Injector(FC);

  ServiceConfig Cfg;
  Cfg.Threads = 4;
  Cfg.Cache.Enabled = false; // every job exercises a real context
  Cfg.MaxQueueDepth = 32;
  CompileService Service(Cfg);
  const PagePool &Pages = PagePool::global();
  const uint64_t Fresh0 = Pages.stats().PagesFresh;

  const unsigned Rounds = 24;
  const unsigned JobsPerRound = 32;
  const unsigned WarmupRounds = 6;
  const uint64_t FreshSlackPerRound = 8;

  Rng R(0x50a6'7e57ULL); // fixed seed: the stream is part of the test
  uint64_t FreshAfterWarmup = 0;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    for (unsigned I = 0; I < JobsPerRound; ++I) {
      BatchJob J;
      uint64_t Roll = R.next() % 100;
      if (Roll < 55) {
        const auto &Corpus = corpusPrograms();
        const CorpusProgram &P = Corpus[R.next() % Corpus.size()];
        J.Sources.push_back({P.Name + ".scala", P.Source});
      } else if (Roll < 65) {
        J.Sources.push_back({"parse_err.scala", "class { def broken("});
      } else if (Roll < 75) {
        J.Sources.push_back(
            {"type_err.scala", "class C { def f(): Int = missing }"});
      } else if (Roll < 90) {
        // Adversarial generator families: truncated, token-mutated,
        // delimiter-broken, and type-error-seeded programs stress parse
        // recovery and the poisoned-type path on recycled contexts.
        static const Family Adversarial[] = {
            Family::Truncated, Family::TokenMutation,
            Family::UnbalancedDelims, Family::TypeErrorSeeded};
        Family F = Adversarial[R.next() % 4];
        J.Sources = generateFamily(F, R.next() % 64, /*Scale=*/0.1);
      } else {
        // Deadline-doomed: expires while queued or at the first
        // checkpoint (the injected delays make sure checkpoints see it).
        const auto &Corpus = corpusPrograms();
        const CorpusProgram &P = Corpus[R.next() % Corpus.size()];
        J.Sources.push_back({P.Name + ".scala", P.Source});
        J.DeadlineSec = 1e-7;
      }
      Service.tryEnqueue(std::move(J));
    }
    std::vector<BatchResult> Results = Service.drain();
    EXPECT_LE(Results.size(), size_t(JobsPerRound));

    // Fixed-point assertions, once the pools are warm.
    PagePool::Stats PS = Pages.stats();
    uint64_t Fresh = PS.PagesFresh - Fresh0;
    if (Round + 1 == WarmupRounds)
      FreshAfterWarmup = Fresh;
    if (Round + 1 > WarmupRounds) {
      uint64_t Budget = FreshAfterWarmup +
                        FreshSlackPerRound * (Round + 1 - WarmupRounds);
      EXPECT_LE(Fresh, Budget) << "round " << Round;
    }
    EXPECT_LE(PS.pagesHeld(), PagePool::MaxPages) << "round " << Round;
    EXPECT_LE(Service.warmContexts(), size_t(Cfg.Threads))
        << "round " << Round;
  }

  // The stream really was mixed: successes, failures, and robustness
  // paths all ran.
  EXPECT_GT(Service.stats().get("service.jobsCompleted"), 0u);
  EXPECT_GT(Service.stats().get("service.jobsDeadlineExceeded") +
                Service.stats().get("service.jobsFaulted"),
            0u);
}

} // namespace
