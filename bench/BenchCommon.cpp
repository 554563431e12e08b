#include "BenchCommon.h"

#include "ast/TreeUtils.h"
#include "frontend/Frontend.h"
#include "support/OStream.h"
#include "support/Timer.h"
#include "transforms/StandardPlan.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;

[[noreturn]] static void badEnv(const char *Name, const char *Value,
                                const char *Want) {
  std::fprintf(stderr, "%s=%s: expected %s\n", Name, Value, Want);
  std::exit(2);
}

double mpc::bench::benchScale(double Def) {
  const char *Env = std::getenv("MPC_BENCH_SCALE");
  if (!Env)
    return Def;
  char *End = nullptr;
  double Scale = std::strtod(Env, &End);
  if (End == Env || *End != '\0' || !std::isfinite(Scale) || Scale <= 0)
    badEnv("MPC_BENCH_SCALE", Env, "a finite number > 0");
  return Scale;
}

unsigned mpc::bench::benchReps(unsigned Def) {
  const char *Env = std::getenv("MPC_BENCH_REPS");
  if (!Env)
    return Def;
  char *End = nullptr;
  errno = 0;
  long N = std::strtol(Env, &End, 10);
  if (End == Env || *End != '\0' || errno == ERANGE || N > INT_MAX)
    badEnv("MPC_BENCH_REPS", Env, "an integer");
  return N < 2 ? 2u : static_cast<unsigned>(N);
}

void mpc::bench::printScaleReps(double Scale, unsigned Reps) {
  std::printf("workload scale: %.2f, repetitions: %u "
              "(MPC_BENCH_SCALE / MPC_BENCH_REPS to change)\n",
              Scale, Reps);
}

SampleStats mpc::bench::meanCv(const std::vector<double> &Samples) {
  SampleStats S;
  if (Samples.empty())
    return S;
  double Sum = 0;
  for (double V : Samples)
    Sum += V;
  S.Mean = Sum / double(Samples.size());
  if (Samples.size() < 2 || S.Mean == 0)
    return S;
  double Var = 0;
  for (double V : Samples)
    Var += (V - S.Mean) * (V - S.Mean);
  Var /= double(Samples.size() - 1);
  S.CvPct = 100.0 * std::sqrt(Var) / S.Mean;
  return S;
}

std::string mpc::bench::fmtMeanCv(const SampleStats &S) {
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), "%.3fs ±%.1f%%", S.Mean, S.CvPct);
  return Buf;
}

RunResult mpc::bench::runOnce(const WorkloadProfile &Profile,
                              PipelineKind Kind, StopAfter Stop,
                              bool Simulate, uint64_t YoungGenBytes,
                              bool SlabHeap) {
  RunResult R;
  auto Sources = generateWorkload(Profile);
  R.Loc = countLines(Sources);

  CompilerOptions Opts;
  Opts.SlabHeap = SlabHeap;
  CompilerContext Comp(Opts);
  if (YoungGenBytes)
    Comp.heap().setGeometry(YoungGenBytes, 1);
  Comp.options().FuseMiniphases = Kind == PipelineKind::StandardFused;
  Comp.options().AlwaysCopy = Kind == PipelineKind::Legacy;

  CacheSim CS;
  PerfCounters PC(CS);
  if (Simulate)
    Comp.attachSimulators(&CS, &PC);

  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(Comp.options().FuseMiniphases, Errors);
  if (!Errors.empty()) {
    std::fprintf(stderr, "plan error: %s\n", Errors.front().c_str());
    std::abort();
  }

  {
    Timer T;
    std::vector<CompilationUnit> Units =
        runFrontEnd(Comp, std::move(Sources));
    R.FrontendSec = T.elapsedSeconds();
    if (Comp.diags().hasErrors()) {
      Comp.diags().printAll(errs());
      std::abort();
    }
    for (const CompilationUnit &U : Units)
      R.NodesBeforeTransforms += countNodes(U.Root.get());
    // Stage boundary: promotions up to here belong to the frontend even
    // when the promoted object (the typed tree) dies mid-transformations.
    Comp.heap().markBoundary();

    if (Stop != StopAfter::Frontend) {
      TransformPipeline Pipeline(Plan);
      T.reset();
      PipelineResult PR = Pipeline.run(Units, Comp);
      R.TransformSec = T.elapsedSeconds();
      R.Traversals = PR.Traversals;
      R.NodesVisited = PR.NodesVisited;
      R.HooksExecuted = PR.HooksExecuted;
      R.SubtreesPruned = PR.SubtreesPruned;
    }
    if (Stop == StopAfter::Everything) {
      T.reset();
      Program Prog = generateCode(Units, Comp);
      R.BackendSec = T.elapsedSeconds();
      (void)Prog;
    }
    // Capture the generational statistics while the final trees are still
    // alive: tenuring is then attributed to objects that died *during*
    // the pipeline — the intermediate trees whose lifetime the paper's
    // Figure 6 is about. (The final trees are promoted equally under both
    // configurations and would only dilute the comparison.)
    R.Heap = Comp.heap().stats();
    const SlabAllocator::Stats &Backend = Comp.heap().backendStats();
    R.RealAllocs = Backend.SystemCalls;
    R.SlabHits = Backend.SlabAllocs;
    R.PagesMapped = Backend.PagesMapped;
  }
  R.Cache = CS.counters();
  R.Perf = PC.stats();
  return R;
}

IsolatedTransforms
mpc::bench::isolateTransforms(const WorkloadProfile &Profile,
                              PipelineKind Kind, bool Simulate,
                              uint64_t YoungGenBytes) {
  // Paper §5.3: "we made two modified versions ... one stops execution
  // after the front end, and the other stops after the tree
  // transformations. We subtracted the counts of the two versions."
  IsolatedTransforms Iso;
  RunResult FrontOnly =
      runOnce(Profile, Kind, StopAfter::Frontend, Simulate, YoungGenBytes);
  Iso.Full = runOnce(Profile, Kind, StopAfter::Transforms, Simulate,
                     YoungGenBytes);

  auto Sub = [](uint64_t A, uint64_t B) { return A > B ? A - B : 0; };
  Iso.Heap.AllocatedBytes =
      Sub(Iso.Full.Heap.AllocatedBytes, FrontOnly.Heap.AllocatedBytes);
  Iso.Heap.AllocatedObjects =
      Sub(Iso.Full.Heap.AllocatedObjects, FrontOnly.Heap.AllocatedObjects);
  // Tenuring is attributed by PROMOTION time (see HeapStats): transform-
  // stage tenuring is everything promoted after the frontend boundary.
  // Subtracting the frontend-only run would instead leave the frontend's
  // typed trees — which die during the transformations, identically in
  // both configurations — inflating both sides of the comparison.
  Iso.Heap.TenuredBytes = Sub(Iso.Full.Heap.TenuredBytes,
                              Iso.Full.Heap.TenuredBeforeBoundaryBytes);
  Iso.Heap.TenuredObjects =
      Sub(Iso.Full.Heap.TenuredObjects,
          Iso.Full.Heap.TenuredBeforeBoundaryObjects);
  Iso.Heap.MinorGCs = Sub(Iso.Full.Heap.MinorGCs, FrontOnly.Heap.MinorGCs);

  const CacheCounters &A = Iso.Full.Cache;
  const CacheCounters &B = FrontOnly.Cache;
  Iso.Cache.L1DLoads = Sub(A.L1DLoads, B.L1DLoads);
  Iso.Cache.L1DLoadMisses = Sub(A.L1DLoadMisses, B.L1DLoadMisses);
  Iso.Cache.L1DStores = Sub(A.L1DStores, B.L1DStores);
  Iso.Cache.L1DStoreMisses = Sub(A.L1DStoreMisses, B.L1DStoreMisses);
  Iso.Cache.L1IFetches = Sub(A.L1IFetches, B.L1IFetches);
  Iso.Cache.L1IMisses = Sub(A.L1IMisses, B.L1IMisses);
  Iso.Cache.L2Accesses = Sub(A.L2Accesses, B.L2Accesses);
  Iso.Cache.L2Misses = Sub(A.L2Misses, B.L2Misses);
  Iso.Cache.L3Accesses = Sub(A.L3Accesses, B.L3Accesses);
  Iso.Cache.L3Misses = Sub(A.L3Misses, B.L3Misses);
  Iso.Cache.MemoryAccesses = Sub(A.MemoryAccesses, B.MemoryAccesses);

  Iso.Perf.Instructions =
      Sub(Iso.Full.Perf.Instructions, FrontOnly.Perf.Instructions);
  Iso.Perf.Cycles = Sub(Iso.Full.Perf.Cycles, FrontOnly.Perf.Cycles);
  Iso.Perf.StalledCycles =
      Sub(Iso.Full.Perf.StalledCycles, FrontOnly.Perf.StalledCycles);
  return Iso;
}

void mpc::bench::printHeader(const std::string &Title,
                             const std::string &PaperClaim) {
  std::printf("==============================================================="
              "=\n");
  std::printf("%s\n", Title.c_str());
  std::printf("paper: %s\n", PaperClaim.c_str());
  std::printf("==============================================================="
              "=\n");
}

std::string mpc::bench::fmtPct(double Ratio) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%+.1f%%", Ratio * 100.0);
  return Buf;
}

std::string mpc::bench::fmtMB(uint64_t Bytes) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.1f MB", double(Bytes) / (1 << 20));
  return Buf;
}
