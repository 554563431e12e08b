//===----------------------------------------------------------------------===//
// Figure 6: total size of objects tenured (promoted to the old
// generation). The paper's headline memory result: nodes replaced within
// one fused traversal die young; under the Megaphase scheme they survive
// until the next whole-tree pass and get promoted.
//
// Measures benchReps() repetitions per configuration and reports
// mean ±CV (BenchCommon::meanCv). The memsim counters are deterministic,
// so the CV doubles as a determinism check — any spread is a bug.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

static void runWorkload(const WorkloadProfile &P, const char *PaperDelta,
                        unsigned Reps) {
  std::vector<double> FusedMB, UnfusedMB;
  IsolatedTransforms Fused, Unfused;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    Fused = isolateTransforms(P, PipelineKind::StandardFused, false,
                              256ull << 10);
    Unfused = isolateTransforms(P, PipelineKind::StandardUnfused, false,
                                256ull << 10);
    FusedMB.push_back(double(Fused.Heap.TenuredBytes) / (1 << 20));
    UnfusedMB.push_back(double(Unfused.Heap.TenuredBytes) / (1 << 20));
  }
  SampleStats FS = meanCv(FusedMB), US = meanCv(UnfusedMB);

  std::printf("\n[%s: %llu LOC, young gen 256KB, %llu vs %llu minor GCs]\n",
              P.Name.c_str(), (unsigned long long)Fused.Full.Loc,
              (unsigned long long)Fused.Heap.MinorGCs,
              (unsigned long long)Unfused.Heap.MinorGCs);
  std::printf("  tenured (miniphase): %.1f MB ±%.1f%%  (%llu objects)\n",
              FS.Mean, FS.CvPct,
              (unsigned long long)Fused.Heap.TenuredObjects);
  std::printf("  tenured (megaphase): %.1f MB ±%.1f%%  (%llu objects)\n",
              US.Mean, US.CvPct,
              (unsigned long long)Unfused.Heap.TenuredObjects);
  std::printf("  measured delta: %s   (paper: %s)\n",
              fmtPct(FS.Mean / US.Mean - 1.0).c_str(), PaperDelta);
}

/// The mechanism behind the figure, isolated: N nodes each rewritten
/// \p ChainDepth times per block of fused phases. Fused, the rewrites of
/// one node happen back-to-back and all but the last die young; unfused,
/// every rewrite survives a whole sweep of the other nodes and tenures.
/// The paper's -49%/-55% corresponds to a same-block rewrite density of
/// about 3 rewrites per surviving node.
static void mechanismPanel() {
  std::printf("\n[mechanism: tenured delta vs same-block rewrite density]\n");
  std::printf("  %-28s %12s %12s %10s\n", "rewrites per node per block",
              "fused", "unfused", "delta");
  const unsigned Nodes = 20000;
  const unsigned ObjBytes = 96;
  const uint64_t YoungGen = Nodes * ObjBytes / 4;
  for (unsigned Chain : {1u, 2u, 3u, 5u}) {
    auto Sweep = [&](bool Fused) {
      ManagedHeap H(YoungGen, 1);
      struct Obj {
        void *P = nullptr;
        uint64_t Birth = 0;
      };
      std::vector<Obj> Cur(Nodes);
      for (Obj &O : Cur)
        O.P = H.allocate(ObjBytes, O.Birth);
      auto RewriteOnce = [&](Obj &O) {
        Obj Next;
        Next.P = H.allocate(ObjBytes, Next.Birth);
        H.deallocate(O.P, ObjBytes, O.Birth);
        O = Next;
      };
      if (Fused) {
        for (unsigned N = 0; N < Nodes; ++N)
          for (unsigned C = 0; C < Chain; ++C)
            RewriteOnce(Cur[N]);
      } else {
        for (unsigned C = 0; C < Chain; ++C)
          for (unsigned N = 0; N < Nodes; ++N)
            RewriteOnce(Cur[N]);
      }
      for (Obj &O : Cur)
        H.deallocate(O.P, ObjBytes, O.Birth);
      return H.stats().TenuredBytes;
    };
    uint64_t F = Sweep(true), U = Sweep(false);
    std::printf("  %-28u %12s %12s %10s\n", Chain, fmtMB(F).c_str(),
                fmtMB(U).c_str(),
                fmtPct(double(F) / double(U) - 1.0).c_str());
  }
  std::printf("  (the full-pipeline delta above is small because this "
              "repository's 28 phases\n   rewrite a given node about once "
              "per block; Dotty's 54 denser phases sit\n   near density 3, "
              "which is where the paper's -49%%/-55%% appears)\n");
}

int main() {
  printHeader("Figure 6 — GC bytes tenured by the transformations",
              "miniphases tenure 49% less (stdlib) / 55% less (dotty)");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  printScaleReps(Scale, Reps);
  runWorkload(stdlibProfile(Scale), "-49%", Reps);
  runWorkload(dottyProfile(Scale), "-55%", Reps);
  mechanismPanel();
  return 0;
}
