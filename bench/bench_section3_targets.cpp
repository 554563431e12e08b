//===----------------------------------------------------------------------===//
// Section 3: the target performance characteristics the framework was
// designed against — ≥12,000 transformed LOC/second, ~12 nodes per line,
// and a per-node visit budget of 140ns (fused, 10 traversals) vs 14ns
// (100 separate Megaphase traversals).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

int main() {
  printHeader("Section 3 — target performance characteristics",
              "transform >= 12 kLOC/s; ~12 nodes/LOC; 140 ns/node visit "
              "budget for fused traversals");
  double Scale = benchScale(1.0);
  WorkloadProfile P = stdlibProfile(Scale);
  uint64_t Nodes = runFrontendOnly(P, false).FrontendNodes;
  RunResult Fused = runOnce(P, PipelineKind::StandardFused, false);
  RunResult Unfused = runOnce(P, PipelineKind::StandardUnfused, false);

  // Each plan group is one whole-tree traversal.
  double NodesPerLoc = double(Nodes) / double(Fused.Loc);
  double LocPerSec = double(Fused.Loc) / Fused.Timings.TransformSec;
  double NsPerNodeVisitFused =
      Fused.Timings.TransformSec * 1e9 /
      (double(Nodes) * double(Fused.Groups.size()));
  double NsPerNodeVisitUnfused =
      Unfused.Timings.TransformSec * 1e9 /
      (double(Nodes) * double(Unfused.Groups.size()));

  std::printf("workload: %llu LOC, %llu typed nodes\n",
              (unsigned long long)Fused.Loc,
              (unsigned long long)Nodes);
  std::printf("  nodes per line:            %6.1f   (paper assumes ~12)\n",
              NodesPerLoc);
  std::printf("  transform throughput:      %6.0f LOC/s  (target >= "
              "12000)\n",
              LocPerSec);
  std::printf("  traversals (fused):        %6llu   (paper targets ~10 "
              "for ~100 phases)\n",
              (unsigned long long)Fused.Groups.size());
  std::printf("  ns per node visit, fused:  %6.1f   (budget 140 ns)\n",
              NsPerNodeVisitFused);
  std::printf("  ns per node visit, split:  %6.1f   (budget 14 ns)\n",
              NsPerNodeVisitUnfused);
  return 0;
}
