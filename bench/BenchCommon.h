//===----------------------------------------------------------------------===//
///
/// \file
/// Shared measurement harness for the figure benchmarks. Every measured
/// compile is one compileProgram call, read back through its report
/// (CompileOutput's timings and per-group entries). The paper's §5.3
/// isolates the tree-transformation pipeline by subtracting a run that
/// stops after the front end; here that is a frontend-only baseline (the
/// one staged run in bench/: runFrontEnd plus the heap boundary mark) and
/// one driver run. Code generation allocates no trees and issues no simulated
/// accesses, so the driver run's counters end where the transformations
/// do.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BENCH_BENCHCOMMON_H
#define MPC_BENCH_BENCHCOMMON_H

#include "driver/Driver.h"
#include "memsim/CacheSim.h"
#include "memsim/ManagedHeap.h"
#include "memsim/PerfCounters.h"
#include "workload/ProgramGenerator.h"

#include <string>
#include <vector>

namespace mpc {
namespace bench {

/// One measured compiler run.
struct RunResult {
  uint64_t Loc = 0;
  /// The driver's report (driver runs only).
  CompileTimings Timings;
  std::vector<GroupReport> Groups;
  /// Typed tree nodes the front end produced (frontend-only runs only).
  uint64_t FrontendNodes = 0;
  /// Simulated heap statistics, read while the final trees are alive.
  HeapStats Heap;
  /// Real-storage backend counters for the whole run.
  SlabAllocator::Stats Backend;
  CacheCounters Cache;   // simulated cache counters (when simulated)
  PerfStats Perf;        // simulated instruction/cycle counters
};

/// Compiles \p Profile's generated sources with compileProgram. When
/// \p Simulate, the cache/perf simulators are attached (slow; used by
/// Figs 7/8). \p SlabHeap selects the real-storage backend (the
/// simulated heap figures are identical either way; fig5 compares the
/// real side).
RunResult runOnce(const WorkloadProfile &Profile, PipelineKind Kind,
                  bool Simulate, uint64_t YoungGenBytes = 0,
                  bool SlabHeap = true);

/// The §5.3 baseline: the same input through the front end only.
RunResult runFrontendOnly(const WorkloadProfile &Profile, bool Simulate,
                          uint64_t YoungGenBytes = 0);

/// Transform-stage isolation (paper §5.3): a driver run minus the
/// frontend-only baseline.
struct IsolatedTransforms {
  HeapStats Heap;
  CacheCounters Cache;
  PerfStats Perf;
  RunResult Full; // the driver run, for times
};
IsolatedTransforms isolateTransforms(const WorkloadProfile &Profile,
                                     PipelineKind Kind, bool Simulate,
                                     uint64_t YoungGenBytes = 0);

/// Reads MPC_BENCH_SCALE (default \p Def) — lets CI run the benches at
/// reduced size. A value that does not parse, or is not finite and > 0,
/// prints the variable's name and exits with status 2.
double benchScale(double Def = 1.0);

/// Reads MPC_BENCH_REPS (default \p Def, floor 2) — how many repetitions
/// the figure benches measure per configuration. A value that does not
/// parse as an integer prints the variable's name and exits with status 2.
unsigned benchReps(unsigned Def = 5);

/// Prints the scale and repetition count a bench runs with.
void printScaleReps(double Scale, unsigned Reps);

/// Mean and coefficient of variation of a sample set.
struct SampleStats {
  double Mean = 0;
  double CvPct = 0; // stddev / mean, in percent
};
SampleStats meanCv(const std::vector<double> &Samples);

/// Formats a measured time with its spread: "0.123s ±2.1%".
std::string fmtMeanCv(const SampleStats &S);

/// Formatting helpers.
void printHeader(const std::string &Title, const std::string &PaperClaim);
std::string fmtPct(double Ratio); // e.g. "-35.2%"
std::string fmtMB(uint64_t Bytes);

} // namespace bench
} // namespace mpc

#endif // MPC_BENCH_BENCHCOMMON_H
