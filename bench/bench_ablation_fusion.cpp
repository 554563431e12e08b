//===----------------------------------------------------------------------===//
// Ablation (not a paper figure): the value of the fusion-engine
// optimizations — (1) skipping identity transforms, (2) the per-kind
// dispatch lists (flattened into contiguous buffers), and (3) subtree
// pruning via the per-tree kind summary — measured by running the same
// fused pipeline with the optimizations selectively disabled. Times are
// means over repetitions with CV reported (BenchCommon::meanCv).
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

namespace {

struct ConfigResult {
  SampleStats Time;               // over all repetitions
  std::vector<GroupReport> Groups; // the driver's report, one repetition
};

ConfigResult runConfig(const WorkloadProfile &P, FusionStrategy Strategy,
                       bool IdentitySkip, bool SubtreePruning,
                       unsigned Reps) {
  ConfigResult R;
  std::vector<double> Samples;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    CompilerContext Comp;
    Comp.options().Strategy = Strategy;
    Comp.options().IdentitySkip = IdentitySkip;
    Comp.options().SubtreePruning = SubtreePruning;
    CompileOutput Out = compileProgram(Comp, generateWorkload(P),
                                       PipelineKind::StandardFused);
    Samples.push_back(Out.Timings.TransformSec);
    R.Groups = std::move(Out.Groups);
  }
  R.Time = meanCv(Samples);
  return R;
}

void printRow(const char *Name, const ConfigResult &R) {
  GroupReport Sum = sumGroups(R.Groups);
  std::printf("  %-44s %16s %13llu %13llu %10llu\n", Name,
              fmtMeanCv(R.Time).c_str(), (unsigned long long)Sum.HooksExecuted,
              (unsigned long long)Sum.NodesVisited,
              (unsigned long long)Sum.SubtreesPruned);
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

  // Per-block pruning effect: nodes visited with pruning on vs off. A
  // group that walks no nodes (the Erasure megaphase) has no row.
  std::printf("\n  per-block nodesVisited (pruning on vs off):\n");
  double BestCut = 0;
  for (size_t I = 0; I < NoPrune.Groups.size() && I < Shipped.Groups.size();
       ++I) {
    uint64_t On = Shipped.Groups[I].NodesVisited;
    uint64_t Off = NoPrune.Groups[I].NodesVisited;
    if (Off == 0)
      continue;
    double Cut = 1.0 - double(On) / double(Off);
    if (Cut > BestCut)
      BestCut = Cut;
    std::printf("    %-18s %10llu -> %10llu  (%s)\n",
                Shipped.Groups[I].Name.c_str(), (unsigned long long)Off,
                (unsigned long long)On, fmtPct(-Cut).c_str());
  }

  std::printf("\n  identity-skip avoids %.1fx hook invocations; pruning "
              "skips %s of visited nodes (best block %s); combined "
              "speedup vs no optimizations: %s\n",
              double(sumGroups(NoSkip.Groups).HooksExecuted) /
                  double(sumGroups(Shipped.Groups).HooksExecuted),
              fmtPct(-(1.0 - double(sumGroups(Shipped.Groups).NodesVisited) /
                               double(sumGroups(NoPrune.Groups).NodesVisited)))
                  .c_str(),
              fmtPct(-BestCut).c_str(),
              fmtPct(Shipped.Time.Mean / NoSkip.Time.Mean - 1.0).c_str());
  return 0;
}
