//===----------------------------------------------------------------------===//
// Figure 4: execution time of the tree-transformation pipeline, the
// typechecker (front end) and the code-generation backend, comparing the
// Miniphase (fused) and Megaphase (unfused) versions of the compiler on
// the stdlib-like (34 kLOC) and dotty-like (50 kLOC) workloads. Each
// configuration is measured over repetitions; rows report the mean with
// the coefficient of variation (BenchCommon::meanCv).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

namespace {

struct StageSamples {
  std::vector<double> Frontend, Transform, Backend, Total;
  RunResult Last;

  void record(RunResult R) {
    Frontend.push_back(R.Timings.FrontendSec);
    Transform.push_back(R.Timings.TransformSec);
    Backend.push_back(R.Timings.BackendSec);
    Total.push_back(R.Timings.totalSec());
    Last = std::move(R);
  }
};

void runWorkload(const WorkloadProfile &P, unsigned Reps) {
  // Alternate the configurations so allocator/page-cache drift spreads
  // evenly across both sample sets.
  StageSamples Fused, Unfused;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Fused.record(runOnce(P, PipelineKind::StandardFused, false));
    Unfused.record(runOnce(P, PipelineKind::StandardUnfused, false));
  }
  uint64_t Nodes = runFrontendOnly(P, false).FrontendNodes;

  std::printf("\n[%s: %llu LOC, %llu nodes, %llu vs %llu traversals, "
              "%llu subtrees pruned]\n",
              P.Name.c_str(), (unsigned long long)Fused.Last.Loc,
              (unsigned long long)Nodes,
              (unsigned long long)Fused.Last.Groups.size(),
              (unsigned long long)Unfused.Last.Groups.size(),
              (unsigned long long)sumGroups(Fused.Last.Groups).SubtreesPruned);
  std::printf("  %-22s %16s %16s %10s\n", "stage", "miniphase", "megaphase",
              "delta");
  auto Row = [](const char *Stage, const std::vector<double> &A,
                const std::vector<double> &B) {
    SampleStats SA = meanCv(A), SB = meanCv(B);
    std::printf("  %-22s %16s %16s %10s\n", Stage, fmtMeanCv(SA).c_str(),
                fmtMeanCv(SB).c_str(), fmtPct(SA.Mean / SB.Mean - 1.0).c_str());
  };
  Row("frontend (typer)", Fused.Frontend, Unfused.Frontend);
  Row("tree transformations", Fused.Transform, Unfused.Transform);
  Row("backend (codegen)", Fused.Backend, Unfused.Backend);
  Row("total", Fused.Total, Unfused.Total);

  SampleStats TF = meanCv(Fused.Transform), TU = meanCv(Unfused.Transform);
  SampleStats AF = meanCv(Fused.Total), AU = meanCv(Unfused.Total);
  std::printf("  measured transform speedup: %s   (paper: %s)\n",
              fmtPct(TF.Mean / TU.Mean - 1.0).c_str(),
              P.Name == "stdlib" ? "-37%" : "-34%");
  std::printf("  measured total speedup:     %s   (paper: %s)\n",
              fmtPct(AF.Mean / AU.Mean - 1.0).c_str(),
              P.Name == "stdlib" ? "-15%" : "-16%");
}

} // namespace

int main() {
  printHeader("Figure 4 — stage execution times, Miniphase vs Megaphase",
              "transformations -37% (stdlib) / -34% (dotty); total "
              "-15% / -16%");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  printScaleReps(Scale, Reps);
  // Warm up the allocator before measuring.
  runOnce(stdlibProfile(0.05), PipelineKind::StandardFused, false);
  runWorkload(stdlibProfile(Scale), Reps);
  runWorkload(dottyProfile(Scale), Reps);
  return 0;
}
