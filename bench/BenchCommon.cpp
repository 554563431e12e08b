#include "BenchCommon.h"

#include "ast/TreeUtils.h"
#include "frontend/Frontend.h"
#include "support/OStream.h"

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

namespace {

/// Compiles \p Profile's sources with \p Compile in a fresh context and
/// reads the counters while the trees \p Compile returns are still
/// alive: tenuring is then attributed to objects that died *during* the
/// pipeline — the intermediate trees whose lifetime the paper's Figure 6
/// is about. (The final trees are promoted equally under both
/// configurations and would only dilute the comparison.)
template <typename CompileFn>
RunResult measure(const WorkloadProfile &Profile, bool Simulate,
                  uint64_t YoungGenBytes, bool SlabHeap, CompileFn Compile) {
  RunResult R;
  auto Sources = generateWorkload(Profile);
  R.Loc = countLines(Sources);
  CompilerOptions Opts;
  Opts.SlabHeap = SlabHeap;
  CompilerContext Comp(Opts);
  if (YoungGenBytes)
    Comp.heap().setGeometry(YoungGenBytes, 1);
  CacheSim CS;
  PerfCounters PC(CS);
  if (Simulate)
    Comp.attachSimulators(&CS, &PC);
  auto Trees = Compile(Comp, std::move(Sources), R);
  if (Comp.diags().hasErrors()) {
    Comp.diags().printAll(errs());
    std::abort();
  }
  R.Heap = Comp.heap().stats();
  R.Backend = Comp.heap().backendStats();
  R.Cache = CS.counters();
  R.Perf = PC.stats();
  return R;
}

} // namespace

RunResult mpc::bench::runOnce(const WorkloadProfile &Profile,
                              PipelineKind Kind, bool Simulate,
                              uint64_t YoungGenBytes, bool SlabHeap) {
  return measure(Profile, Simulate, YoungGenBytes, SlabHeap,
                 [Kind](CompilerContext &Comp, std::vector<SourceInput> Src,
                        RunResult &R) {
                   CompileOutput Out =
                       compileProgram(Comp, std::move(Src), Kind);
                   if (!Out.PlanErrors.empty()) {
                     std::fprintf(stderr, "plan error: %s\n",
                                  Out.PlanErrors.front().c_str());
                     std::abort();
                   }
                   R.Timings = Out.Timings;
                   R.Groups = Out.Groups;
                   return Out;
                 });
}

RunResult mpc::bench::runFrontendOnly(const WorkloadProfile &Profile,
                                      bool Simulate, uint64_t YoungGenBytes) {
  return measure(Profile, Simulate, YoungGenBytes, /*SlabHeap=*/true,
                 [](CompilerContext &Comp, std::vector<SourceInput> Src,
                    RunResult &R) {
                   std::vector<CompilationUnit> Units =
                       runFrontEnd(Comp, std::move(Src));
                   // The same stage boundary compileProgram marks.
                   Comp.heap().markBoundary();
                   for (const CompilationUnit &U : Units)
                     R.FrontendNodes += countNodes(U.Root.get());
                   return Units;
                 });
}

IsolatedTransforms
mpc::bench::isolateTransforms(const WorkloadProfile &Profile,
                              PipelineKind Kind, bool Simulate,
                              uint64_t YoungGenBytes) {
  // Paper §5.3: "we made two modified versions ... one stops execution
  // after the front end, and the other stops after the tree
  // transformations. We subtracted the counts of the two versions."
  // The second version is the unmodified driver: code generation adds
  // nothing to the heap, cache or instruction counters.
  IsolatedTransforms Iso;
  RunResult FrontOnly = runFrontendOnly(Profile, Simulate, YoungGenBytes);
  Iso.Full = runOnce(Profile, Kind, Simulate, YoungGenBytes);

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

  for (uint64_t CacheCounters::*F :
       {&CacheCounters::L1DLoads, &CacheCounters::L1DLoadMisses,
        &CacheCounters::L1DStores, &CacheCounters::L1DStoreMisses,
        &CacheCounters::L1IFetches, &CacheCounters::L1IMisses,
        &CacheCounters::L2Accesses, &CacheCounters::L2Misses,
        &CacheCounters::L3Accesses, &CacheCounters::L3Misses,
        &CacheCounters::MemoryAccesses})
    Iso.Cache.*F = Sub(Iso.Full.Cache.*F, FrontOnly.Cache.*F);
  for (uint64_t PerfStats::*F : {&PerfStats::Instructions, &PerfStats::Cycles,
                                 &PerfStats::StalledCycles})
    Iso.Perf.*F = Sub(Iso.Full.Perf.*F, FrontOnly.Perf.*F);
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
