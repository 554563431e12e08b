//===----------------------------------------------------------------------===//
// Figure 9: the Miniphase compiler vs the scalac-like legacy baseline.
// The baseline runs the same transformations unfused with the always-copy
// copier; the paper's cross-compiler frontend gap (scalac's older typer)
// is modeled by a documented constant factor, not measured.
//
// Measures benchReps() repetitions per configuration, alternating the
// configurations per repetition, and reports mean ±CV per stage
// (BenchCommon::meanCv).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

// Documented model constant: scalac's typer is roughly 1.9x slower than
// Dotty's on the same input (the paper reports Dotty's typer is faster
// "though this is unrelated to Miniphases").
static constexpr double LegacyFrontendFactor = 1.9;

static void runWorkload(const WorkloadProfile &P, const char *PaperTrans,
                        const char *PaperTotal, unsigned Reps) {
  struct Samples {
    std::vector<double> Frontend, Transform, Backend;
  } Dotty, Scalac;
  uint64_t Loc = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    RunResult D = runOnce(P, PipelineKind::StandardFused, false);
    RunResult S = runOnce(P, PipelineKind::Legacy, false);
    Dotty.Frontend.push_back(D.Timings.FrontendSec);
    Dotty.Transform.push_back(D.Timings.TransformSec);
    Dotty.Backend.push_back(D.Timings.BackendSec);
    Scalac.Frontend.push_back(S.Timings.FrontendSec * LegacyFrontendFactor);
    Scalac.Transform.push_back(S.Timings.TransformSec);
    Scalac.Backend.push_back(S.Timings.BackendSec);
    Loc = D.Loc;
  }

  std::printf("\n[%s: %llu LOC, %u reps]\n", P.Name.c_str(),
              (unsigned long long)Loc, Reps);
  std::printf("  %-22s %16s %16s\n", "stage", "dotty-like", "scalac-like");
  auto Row = [](const char *Stage, const std::vector<double> &A,
                const std::vector<double> &B) {
    std::printf("  %-22s %16s %16s\n", Stage, fmtMeanCv(meanCv(A)).c_str(),
                fmtMeanCv(meanCv(B)).c_str());
  };
  Row("frontend", Dotty.Frontend, Scalac.Frontend);
  std::printf("  %-22s (scalac frontend uses the x%.1f typer model "
              "factor)\n",
              "", LegacyFrontendFactor);
  Row("tree transformations", Dotty.Transform, Scalac.Transform);
  Row("backend", Dotty.Backend, Scalac.Backend);

  auto Mean = [](const std::vector<double> &V) { return meanCv(V).Mean; };
  double TotalD =
      Mean(Dotty.Frontend) + Mean(Dotty.Transform) + Mean(Dotty.Backend);
  double TotalS =
      Mean(Scalac.Frontend) + Mean(Scalac.Transform) + Mean(Scalac.Backend);
  std::printf("  transforms: dotty uses %.0f%% of scalac's time (paper: "
              "%s)\n",
              100.0 * Mean(Dotty.Transform) / Mean(Scalac.Transform),
              PaperTrans);
  std::printf("  total:      dotty uses %.0f%% of scalac's time (paper: "
              "%s)\n",
              100.0 * TotalD / TotalS, PaperTotal);
}

int main() {
  printHeader("Figure 9 — Miniphase compiler vs scalac-like baseline",
              "Dotty spends 42%/39% of scalac's transform time; compiles "
              "in 51%/58% of total time");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  printScaleReps(Scale, Reps);
  // Warm up the allocator before measuring.
  runOnce(stdlibProfile(0.05), PipelineKind::StandardFused, false);
  runWorkload(stdlibProfile(Scale), "42%", "51%", Reps);
  runWorkload(dottyProfile(Scale), "39%", "58%", Reps);
  return 0;
}
