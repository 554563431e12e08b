//===----------------------------------------------------------------------===//
///
/// \file
/// Shared measurement harness for the figure benchmarks. Mirrors the
/// paper's methodology (§5.3): to isolate the tree-transformation
/// pipeline, a run stopping after the front end is subtracted from a run
/// stopping after the transformations.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BENCH_BENCHCOMMON_H
#define MPC_BENCH_BENCHCOMMON_H

#include "backend/CodeGen.h"
#include "driver/Driver.h"
#include "core/Pipeline.h"
#include "memsim/CacheSim.h"
#include "memsim/ManagedHeap.h"
#include "memsim/PerfCounters.h"
#include "workload/ProgramGenerator.h"

#include <string>
#include <vector>

namespace mpc {
namespace bench {

/// How far to run the compiler.
enum class StopAfter { Frontend, Transforms, Everything };

/// One measured compiler run.
struct RunResult {
  double FrontendSec = 0;
  double TransformSec = 0;
  double BackendSec = 0;
  uint64_t Traversals = 0;
  uint64_t Loc = 0;
  uint64_t NodesBeforeTransforms = 0;
  /// Fusion-engine counters for the transform stage (fused runs only).
  uint64_t NodesVisited = 0;
  uint64_t HooksExecuted = 0;
  uint64_t SubtreesPruned = 0;
  /// Real-storage allocator counters for the whole run (system-allocator
  /// calls, slab-served allocations, slab pages).
  uint64_t RealAllocs = 0;
  uint64_t SlabHits = 0;
  uint64_t PagesMapped = 0;
  HeapStats Heap;        // whole-run heap statistics
  CacheCounters Cache;   // simulated cache counters (when simulated)
  PerfStats Perf;        // simulated instruction/cycle counters
};

/// Runs the compiler on \p Profile's generated sources. When \p Simulate,
/// the cache/perf simulators are attached (slow; used by Figs 7/8).
/// \p SlabHeap selects the real-storage backend (the simulated heap
/// figures are identical either way; fig5 compares the real side).
RunResult runOnce(const WorkloadProfile &Profile, PipelineKind Kind,
                  StopAfter Stop, bool Simulate,
                  uint64_t YoungGenBytes = 0, bool SlabHeap = true);

/// Transform-stage isolation via subtraction of a frontend-only run
/// (paper §5.3). Returns (through-transforms minus frontend-only).
struct IsolatedTransforms {
  HeapStats Heap;
  CacheCounters Cache;
  PerfStats Perf;
  RunResult Full; // the through-transforms run, for times
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
