//===----------------------------------------------------------------------===//
// Figure 8: cache-access counters of the transformation pipeline on the
// simulated Xeon E5-2680 v2 hierarchy (32KB L1d/L1i, 256KB L2, 25MB
// inclusive L3 with back-invalidation).
//   (a) L1-load / L1-store / LLC-load miss rates
//   (b) L1 cache access counts
//   (c) accesses that missed every on-chip cache
//   (d) L1-icache load misses
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include <cstdio>

using namespace mpc;
using namespace mpc::bench;

static void runWorkload(const WorkloadProfile &P, unsigned Reps) {
  // The simulated cache counters are deterministic; repetitions exist to
  // put an uncertainty on the (host) wall time of the simulated pipeline,
  // reported mean ± CV per the shared protocol.
  std::vector<double> FusedSec, UnfusedSec;
  IsolatedTransforms F, U;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    F = isolateTransforms(P, PipelineKind::StandardFused, true);
    U = isolateTransforms(P, PipelineKind::StandardUnfused, true);
    FusedSec.push_back(F.Full.TransformSec);
    UnfusedSec.push_back(U.Full.TransformSec);
  }
  SampleStats TF = meanCv(FusedSec), TU = meanCv(UnfusedSec);

  std::printf("\n[%s: %llu LOC]  simulated transform walk %s vs %s\n",
              P.Name.c_str(), (unsigned long long)F.Full.Loc,
              fmtMeanCv(TF).c_str(), fmtMeanCv(TU).c_str());

  std::printf("  (a) miss rates                 mini      mega     delta   "
              "(paper)\n");
  auto Rate = [](const char *Name, double A, double B, const char *Paper) {
    std::printf("      %-22s %8.3f%% %8.3f%% %9s   %s\n", Name, A * 100,
                B * 100, fmtPct(A / B - 1.0).c_str(), Paper);
  };
  Rate("L1d load miss rate", F.Cache.l1dLoadMissRate(),
       U.Cache.l1dLoadMissRate(), "-47%");
  Rate("L1d store miss rate", F.Cache.l1dStoreMissRate(),
       U.Cache.l1dStoreMissRate(), "-17%");
  Rate("LLC load miss rate", F.Cache.llcLoadMissRate(),
       U.Cache.llcLoadMissRate(), "-40%");

  auto Count = [](const char *Name, uint64_t A, uint64_t B,
                  const char *Paper) {
    std::printf("      %-22s %10llu %10llu %8s   %s\n", Name,
                (unsigned long long)A, (unsigned long long)B,
                fmtPct(double(A) / double(B) - 1.0).c_str(), Paper);
  };
  std::printf("  (b) L1 accesses                mini       mega    delta   "
              "(paper)\n");
  Count("L1d accesses", F.Cache.l1dAccesses(), U.Cache.l1dAccesses(),
        "~-10%");
  std::printf("  (c) main-memory accesses\n");
  Count("missed all caches", F.Cache.MemoryAccesses,
        U.Cache.MemoryAccesses, "-47% (512M -> 278M)");
  std::printf("  (d) L1-icache misses\n");
  Count("L1i load misses", F.Cache.L1IMisses, U.Cache.L1IMisses, "-24%");
}

int main() {
  printHeader("Figure 8 — cache access counters (simulated hierarchy)",
              "L1d-load miss rate -47%, L1d-store -17%, LLC-load -40%; "
              "L1 accesses -10%; memory accesses -47%; icache misses "
              "-24%");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  printScaleReps(Scale, Reps);
  runWorkload(stdlibProfile(Scale), Reps);
  runWorkload(dottyProfile(Scale), Reps);
  return 0;
}
