//===----------------------------------------------------------------------===//
// §6.3: "The runtime overhead of the dynamic checks depends significantly
// on the specific code being compiled, but the approximate slowdown in
// the running time of the compiler is about 1.5x."
//
// This bench compiles both workloads with the TreeChecker disabled and
// enabled (global invariants + bottom-up retype + accumulated phase
// postconditions after every group, exactly Listing 9) and reports the
// whole-compiler slowdown over benchReps() repetitions as mean ±CV
// (BenchCommon::meanCv), alternating the configurations per repetition.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "support/OStream.h"

#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;

namespace {

struct CheckedRun {
  double TotalSec = 0;
  double TransformSec = 0;
  uint64_t FailuresFound = 0;
};

CheckedRun runWithChecking(const WorkloadProfile &Profile, bool Check) {
  CompilerContext Comp;
  Comp.options().CheckTrees = Check;
  CompileOutput Out = compileProgram(Comp, generateWorkload(Profile),
                                     PipelineKind::StandardFused);
  if (!Out.PlanErrors.empty() || Comp.diags().hasErrors()) {
    for (const std::string &E : Out.PlanErrors)
      std::fprintf(stderr, "plan error: %s\n", E.c_str());
    Comp.diags().printAll(errs());
    std::abort();
  }
  return {Out.Timings.totalSec(), Out.Timings.TransformSec,
          Out.CheckFailures.size()};
}

void runWorkload(const WorkloadProfile &P, unsigned Reps) {
  std::vector<double> OffTransform, OnTransform, OffTotal, OnTotal;
  uint64_t Failures = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    CheckedRun Off = runWithChecking(P, false);
    CheckedRun On = runWithChecking(P, true);
    OffTransform.push_back(Off.TransformSec);
    OnTransform.push_back(On.TransformSec);
    OffTotal.push_back(Off.TotalSec);
    OnTotal.push_back(On.TotalSec);
    Failures += On.FailuresFound;
  }
  SampleStats OffT = meanCv(OffTransform), OnT = meanCv(OnTransform);
  SampleStats OffA = meanCv(OffTotal), OnA = meanCv(OnTotal);

  std::printf("\n[%s: %u reps]\n", P.Name.c_str(), Reps);
  std::printf("  %-28s %16s %16s %10s\n", "", "-Ycheck off", "-Ycheck on",
              "ratio");
  std::printf("  %-28s %16s %16s %9.2fx\n", "tree transformations",
              fmtMeanCv(OffT).c_str(), fmtMeanCv(OnT).c_str(),
              OnT.Mean / OffT.Mean);
  std::printf("  %-28s %16s %16s %9.2fx\n", "whole compiler",
              fmtMeanCv(OffA).c_str(), fmtMeanCv(OnA).c_str(),
              OnA.Mean / OffA.Mean);
  std::printf("  checker failures: %llu (must be 0 on a healthy pipeline)\n",
              (unsigned long long)Failures);
  if (Failures != 0)
    std::abort();
}

} // namespace

int main() {
  printHeader("§6.3 — dynamic-checker overhead",
              "approximate whole-compiler slowdown about 1.5x");
  double Scale = benchScale(0.5);
  unsigned Reps = benchReps();
  printScaleReps(Scale, Reps);
  runWorkload(stdlibProfile(Scale), Reps);
  runWorkload(dottyProfile(Scale), Reps);
  return 0;
}
