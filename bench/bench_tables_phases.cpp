//===----------------------------------------------------------------------===//
// Tables 1 and 2: the phase inventories. Table 2's analogue is our
// standard pipeline with its fusion blocks (miniphases starred, horizontal
// rules at block boundaries, exactly like the paper's table). Table 1's
// analogue is the same set of transformations arranged as the legacy
// unfused pass list.
//
// The tables themselves are static; the measured component (plan
// construction + fusion-block assembly) follows the shared 5-rep meanCv
// protocol.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/PhasePlan.h"
#include "support/OStream.h"
#include "support/Timer.h"
#include "transforms/StandardPlan.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

int main() {
  unsigned Reps = benchReps();
  std::vector<std::string> Errors;

  std::printf("Table 2 analogue — the Miniphase pipeline "
              "(* = miniphase; lines separate fusion blocks)\n\n");
  PhasePlan Fused = makeStandardPlan(true, Errors);
  Fused.print(outs());
  std::printf("\n  %zu phases in %zu traversal groups (paper: 54 phases, "
              "6 fused blocks + megaphases)\n",
              Fused.phaseCount(), Fused.groups().size());

  std::printf("\nTable 1 analogue — the legacy (scalac-like) pass list: "
              "every phase is its own whole-tree traversal\n\n");
  PhasePlan Legacy = makeStandardPlan(/*Fuse=*/false, Errors);
  Legacy.print(outs());
  std::printf("\n  %zu phases = %zu traversals (paper: scalac 2.12 runs "
              "24 passes)\n",
              Legacy.phaseCount(), Legacy.groups().size());

  if (!Errors.empty()) {
    for (const std::string &E : Errors)
      std::printf("plan error: %s\n", E.c_str());
    return 1;
  }

  // Measured component: plan construction (phase instantiation + fusion
  // grouping), per the shared repetition protocol.
  std::vector<double> BuildSec;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Timer T;
    PhasePlan F = makeStandardPlan(true, Errors);
    PhasePlan L = makeStandardPlan(/*Fuse=*/false, Errors);
    BuildSec.push_back(T.elapsedSeconds());
    (void)F;
    (void)L;
  }
  SampleStats S = meanCv(BuildSec);
  std::printf("\nplan construction (both pipelines): %s over %u reps\n",
              fmtMeanCv(S).c_str(), Reps);
  return 0;
}
