//===----------------------------------------------------------------------===//
// Figure 5: total size of objects allocated by the tree-transformation
// pipeline (generational-heap model standing in for HotSpot's GC logs).
//
// Measured over repetitions (BenchCommon::meanCv): the simulated heap
// counters are deterministic and asserted stable across reps; the
// transform wall time is reported as mean ± CV. The bench additionally
// reports the REAL allocator side — system-allocator calls per fused
// pipeline run with the slab backend on vs. off — which is the number the
// allocation-layer overhaul is accountable for, and the measurement that
// keeps CompilerOptions::SlabHeap.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;

static void runWorkload(const WorkloadProfile &P, const char *PaperDelta,
                        unsigned Reps) {
  std::vector<double> FusedSec, UnfusedSec;
  IsolatedTransforms Fused, Unfused;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    IsolatedTransforms F =
        isolateTransforms(P, PipelineKind::StandardFused, false, 256ull << 10);
    IsolatedTransforms U = isolateTransforms(P, PipelineKind::StandardUnfused,
                                             false, 256ull << 10);
    if (Rep > 0 && (F.Heap.AllocatedBytes != Fused.Heap.AllocatedBytes ||
                    U.Heap.AllocatedBytes != Unfused.Heap.AllocatedBytes)) {
      std::fprintf(stderr, "simulated heap stats drifted across reps\n");
      std::abort();
    }
    FusedSec.push_back(F.Full.Timings.TransformSec);
    UnfusedSec.push_back(U.Full.Timings.TransformSec);
    Fused = F;
    Unfused = U;
  }

  uint64_t A = Fused.Heap.AllocatedBytes;
  uint64_t B = Unfused.Heap.AllocatedBytes;
  SampleStats TF = meanCv(FusedSec), TU = meanCv(UnfusedSec);
  std::printf("\n[%s: %llu LOC]\n", P.Name.c_str(),
              (unsigned long long)Fused.Full.Loc);
  std::printf("  allocated (miniphase): %s  (%llu objects)  transform %s\n",
              fmtMB(A).c_str(),
              (unsigned long long)Fused.Heap.AllocatedObjects,
              fmtMeanCv(TF).c_str());
  std::printf("  allocated (megaphase): %s  (%llu objects)  transform %s\n",
              fmtMB(B).c_str(),
              (unsigned long long)Unfused.Heap.AllocatedObjects,
              fmtMeanCv(TU).c_str());
  std::printf("  measured delta: %s   (paper: %s)\n",
              fmtPct(double(A) / double(B) - 1.0).c_str(), PaperDelta);

  // Real allocator side: system-allocator calls for one full fused run,
  // slab backend on vs. off. The simulated numbers above are identical
  // under both backends (pinned by the slab-invariance test).
  SlabAllocator::Stats SlabOn =
      runOnce(P, PipelineKind::StandardFused, false, 256ull << 10,
              /*SlabHeap=*/true)
          .Backend;
  SlabAllocator::Stats SlabOff =
      runOnce(P, PipelineKind::StandardFused, false, 256ull << 10,
              /*SlabHeap=*/false)
          .Backend;
  std::printf("  real allocator:  %llu system calls (slab on, %llu pages, "
              "%llu slab hits)\n",
              (unsigned long long)SlabOn.SystemCalls,
              (unsigned long long)SlabOn.PagesMapped,
              (unsigned long long)SlabOn.SlabAllocs);
  std::printf("                   %llu system calls (slab off)   delta %s\n",
              (unsigned long long)SlabOff.SystemCalls,
              fmtPct(double(SlabOn.SystemCalls) / double(SlabOff.SystemCalls) -
                     1.0)
                  .c_str());
}

int main() {
  printHeader("Figure 5 — GC bytes allocated by the transformations",
              "miniphases allocate 9% less (stdlib) / 5% less (dotty)");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  printScaleReps(Scale, Reps);
  runWorkload(stdlibProfile(Scale), "-9%", Reps);
  runWorkload(dottyProfile(Scale), "-5%", Reps);
  return 0;
}
