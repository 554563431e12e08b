//===----------------------------------------------------------------------===//
// Ablation (not a paper figure): the value of the fusion-engine
// optimizations — (1) skipping identity transforms, (2) the per-kind
// dispatch lists (flattened into contiguous buffers), and (3) subtree
// pruning via the per-tree kind summary — measured by running the same
// fused pipeline with the optimizations selectively disabled. Times are
// means over repetitions with CV reported (BenchCommon::meanCv).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/Pipeline.h"
#include "frontend/Frontend.h"
#include "support/Timer.h"
#include "transforms/StandardPlan.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

namespace {

struct ConfigResult {
  SampleStats Time;                     // over all repetitions
  uint64_t Hooks = 0;                   // counters from one repetition
  uint64_t Visited = 0;
  uint64_t Pruned = 0;
  std::vector<uint64_t> PerBlockVisited; // per fused block, plan order
};

ConfigResult runConfig(const WorkloadProfile &P, FusionStrategy Strategy,
                       bool IdentitySkip, bool SubtreePruning,
                       unsigned Reps) {
  ConfigResult R;
  std::vector<double> Samples;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    auto Sources = generateWorkload(P);
    CompilerContext Comp;
    Comp.options().FuseMiniphases = true;
    Comp.options().Strategy = Strategy;
    Comp.options().IdentitySkip = IdentitySkip;
    Comp.options().SubtreePruning = SubtreePruning;
    std::vector<std::string> Errors;
    PhasePlan Plan = makeStandardPlan(true, Errors);
    auto Units = runFrontEnd(Comp, std::move(Sources));
    TransformPipeline Pipeline(Plan);
    Timer T;
    PipelineResult PR = Pipeline.run(Units, Comp);
    Samples.push_back(T.elapsedSeconds());
    R.Hooks = PR.HooksExecuted;
    R.Visited = PR.NodesVisited;
    R.Pruned = PR.SubtreesPruned;
    R.PerBlockVisited.clear();
    for (FusedBlock *B : Plan.fusedBlocks())
      R.PerBlockVisited.push_back(B->nodesVisited());
  }
  R.Time = meanCv(Samples);
  return R;
}

void printRow(const char *Name, const ConfigResult &R) {
  std::printf("  %-44s %16s %13llu %13llu %10llu\n", Name,
              fmtMeanCv(R.Time).c_str(), (unsigned long long)R.Hooks,
              (unsigned long long)R.Visited, (unsigned long long)R.Pruned);
}

} // namespace

int main() {
  printHeader("Ablation — fusion engine optimizations (paper §4 + pruning)",
              "identity skip and per-kind lists are the paper's published "
              "optimizations; subtree pruning generalizes the skip to "
              "whole subtrees via the kindsBelow summary");
  double Scale = benchScale(0.6);
  unsigned Reps = benchReps();
  WorkloadProfile P = stdlibProfile(Scale);
  printScaleReps(Scale, Reps);

  // Warm up the allocator before measuring.
  runConfig(stdlibProfile(0.05), FusionStrategy::IndexedByKind, true, true, 1);

  ConfigResult Shipped =
      runConfig(P, FusionStrategy::IndexedByKind, true, true, Reps);
  ConfigResult NoPrune =
      runConfig(P, FusionStrategy::IndexedByKind, true, false, Reps);
  ConfigResult Naive =
      runConfig(P, FusionStrategy::Naive, true, false, Reps);
  ConfigResult NoSkip =
      runConfig(P, FusionStrategy::Naive, false, false, Reps);

  std::printf("\n  %-44s %16s %13s %13s %10s\n", "configuration", "time",
              "hooks", "nodes visited", "pruned");
  printRow("lists + skip + subtree pruning (shipped)", Shipped);
  printRow("lists + skip, pruning off", NoPrune);
  printRow("mask checks per phase (optimization 2 off)", Naive);
  printRow("all hooks invoked (both §4 optimizations off)", NoSkip);

  // Per-block pruning effect: nodes visited with pruning on vs off.
  std::printf("\n  per-block nodesVisited (pruning on vs off):\n");
  double BestCut = 0;
  for (size_t I = 0; I < NoPrune.PerBlockVisited.size() &&
                     I < Shipped.PerBlockVisited.size();
       ++I) {
    uint64_t On = Shipped.PerBlockVisited[I];
    uint64_t Off = NoPrune.PerBlockVisited[I];
    double Cut = Off ? 1.0 - double(On) / double(Off) : 0.0;
    if (Cut > BestCut)
      BestCut = Cut;
    std::printf("    block %zu: %10llu -> %10llu  (%s)\n", I,
                (unsigned long long)Off, (unsigned long long)On,
                fmtPct(-Cut).c_str());
  }

  std::printf("\n  identity-skip avoids %.1fx hook invocations; pruning "
              "skips %s of visited nodes (best block %s); combined "
              "speedup vs no optimizations: %s\n",
              double(NoSkip.Hooks) / double(Shipped.Hooks),
              fmtPct(-(1.0 - double(Shipped.Visited) /
                               double(NoPrune.Visited)))
                  .c_str(),
              fmtPct(-BestCut).c_str(),
              fmtPct(Shipped.Time.Mean / NoSkip.Time.Mean - 1.0).c_str());
  return 0;
}
