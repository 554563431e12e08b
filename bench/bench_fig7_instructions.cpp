//===----------------------------------------------------------------------===//
// Figure 7: instructions executed, clock cycles, and stalled cycles of
// the transformation pipeline (cache-simulator model standing in for the
// paper's `perf` hardware counters).
//
// Measures benchReps() repetitions per configuration and reports
// mean ±CV (BenchCommon::meanCv). The simulated counters are
// deterministic, so the CV doubles as a determinism check.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

static void runWorkload(const WorkloadProfile &P, unsigned Reps) {
  std::vector<double> FI, FC, FS, UI, UC, US;
  IsolatedTransforms Fused, Unfused;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Fused = isolateTransforms(P, PipelineKind::StandardFused, true);
    Unfused = isolateTransforms(P, PipelineKind::StandardUnfused, true);
    FI.push_back(double(Fused.Perf.Instructions));
    FC.push_back(double(Fused.Perf.Cycles));
    FS.push_back(double(Fused.Perf.StalledCycles));
    UI.push_back(double(Unfused.Perf.Instructions));
    UC.push_back(double(Unfused.Perf.Cycles));
    US.push_back(double(Unfused.Perf.StalledCycles));
  }

  std::printf("\n[%s: %llu LOC, %u reps]\n", P.Name.c_str(),
              (unsigned long long)Fused.Full.Loc, Reps);
  std::printf("  %-16s %20s %20s %10s\n", "counter", "miniphase",
              "megaphase", "delta");
  auto Row = [&](const char *Name, const std::vector<double> &A,
                 const std::vector<double> &B) {
    SampleStats SA = meanCv(A), SB = meanCv(B);
    std::printf("  %-16s %14.0f ±%.1f%% %14.0f ±%.1f%% %10s\n", Name,
                SA.Mean, SA.CvPct, SB.Mean, SB.CvPct,
                fmtPct(SA.Mean / SB.Mean - 1.0).c_str());
  };
  Row("instructions", FI, UI);
  Row("cycles", FC, UC);
  Row("stalled_cycles", FS, US);
}

int main() {
  printHeader("Figure 7 — instruction and cycle counters (simulated)",
              "instructions -10%, cycles -35%");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  printScaleReps(Scale, Reps);
  runWorkload(stdlibProfile(Scale), Reps);
  runWorkload(dottyProfile(Scale), Reps);
  return 0;
}
