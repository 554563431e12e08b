//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel batch compilation: many independent compiler runs sharing a
/// worker pool. This is the paper's evaluation setting ("batch compilation
/// in a big project", §5.2) and a first step toward its §9 future work on
/// parallel compilation — compiler *instances* are embarrassingly
/// parallel because every run owns its CompilerContext (trees, symbols,
/// interner), so no compiler state is shared between workers.
///
/// A BatchResult is context-free: it carries the rendered output of a
/// run (status, diagnostics, optional tree dump, timings, heap stats),
/// never the context or its trees. The context is always owned by
/// whoever calls runBatchJob — the CompileService recycles or discards
/// it, and callers that need live trees (to execute them, or to read
/// check failures) call compileProgram on a context of their own.
///
/// compileBatch() is a thin convenience over the CompileService (see
/// CompileService.h): it runs a service with cold contexts and no
/// artifact cache, enqueues every job, and drains — results come back in
/// job order and are byte-identical to a serial run.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_DRIVER_BATCH_H
#define MPC_DRIVER_BATCH_H

#include "driver/Driver.h"
#include "support/Fingerprint.h"

namespace mpc {

/// How a job's run ended. Everything except Ok also sets
/// BatchResult::HadErrors with an explanatory DiagText.
enum class JobStatus : uint8_t {
  /// Compiled (possibly with source-level diagnostics).
  Ok,
  /// Never compiled: refused by the service's admission control.
  Rejected,
  /// Cancelled at a checkpoint after its soft deadline expired (or spent
  /// the whole deadline waiting in the queue). The context unwinds
  /// through RAII tree holders only, so it stays recyclable.
  DeadlineExceeded,
  /// An exception escaped the compile; the worker's firewall converted it
  /// into this failed result. The job's context is treated as poisoned —
  /// discarded by the service, never recycled.
  Faulted,
};

/// One independent compile job.
struct BatchJob {
  std::vector<SourceInput> Sources;
  PipelineKind Kind = PipelineKind::StandardFused;
  /// Options applied to the job's context (CheckTrees etc.). The fusion
  /// and copier flags are still derived from \p Kind.
  CompilerOptions Options;
  /// Render a typed tree dump of every lowered unit into
  /// BatchResult::DumpText. This is how results stay comparable when the
  /// service recycles contexts (the trees themselves die with the shell).
  bool WantDump = false;
  /// Soft deadline in seconds, measured from enqueue (so queue wait
  /// counts against it); 0 = none. Enforced cooperatively at phase
  /// boundaries — see CompilerContext::checkpoint(). Scheduling metadata
  /// only — deliberately NOT part of the JobKey.
  double DeadlineSec = 0;
};

/// Content-addressed identity of a BatchJob: everything that determines
/// the job's observable output (sources in order, cache-relevant options,
/// pipeline kind, dump request) folded into one 128-bit fingerprint. Two
/// jobs with equal keys produce byte-identical results, so the compile
/// service's ArtifactCache can replay one for the other.
struct JobKey {
  Fingerprint FP;

  bool operator==(const JobKey &O) const { return FP == O.FP; }
  bool operator!=(const JobKey &O) const { return FP != O.FP; }
  std::string hex() const { return FP.hex(); }
};

/// Hash adaptor for keying unordered containers by JobKey — the key is
/// already a high-quality hash, so one lane is the bucket index.
struct JobKeyHasher {
  size_t operator()(const JobKey &K) const {
    return static_cast<size_t>(K.FP.Lo);
  }
};

/// Content fingerprint of one source input (name and text, each
/// length-folded, so renames and edits both change it).
Fingerprint fingerprintSource(const SourceInput &Source);

/// Derives the job's content-addressed key. See Batch.cpp for the
/// CompilerOptions audit: every field is either mixed into the key or
/// explicitly listed as cache-irrelevant, with a sizeof tripwire that
/// fails the build when a new field is added unaudited.
JobKey jobKeyFor(const BatchJob &Job);

/// The outcome of one job: context-free data only, so a result can
/// outlive (or never have had) the context that produced it. This is
/// also exactly what the ArtifactCache stores and replays.
struct BatchResult {
  JobStatus Status = JobStatus::Ok;
  bool HadErrors = false;
  std::string DiagText; // rendered diagnostics when HadErrors
  std::string DumpText; // typed tree dumps when BatchJob::WantDump
  /// Simulated-heap statistics snapshot taken right after the compile
  /// (before any teardown), so warm/cold and serial/parallel runs are
  /// comparable field by field.
  HeapStats Heap;
  /// Per-stage compile times; QueueWaitSec is set by the service.
  CompileTimings Timings;
};

/// Compiles one job in \p Comp, a context owned by the caller, and
/// snapshots diagnostics, heap stats, timings and (when requested) tree
/// dumps into the result. The compile output, and with it every tree,
/// dies before this returns, so the caller may recycle \p Comp at once.
///
/// This is also the fault boundary: a DeadlineExceeded unwind (the job's
/// DeadlineSec, armed here as a stack-local CancelToken) or any other
/// exception escaping the compile is caught and folded into the result's
/// Status. The caller decides from that Status whether \p Comp is still
/// fit for reuse.
BatchResult runBatchJob(BatchJob Job, CompilerContext &Comp);

/// Compiles all \p Jobs using up to \p Threads workers (0 = hardware
/// concurrency) on a CompileService with cold contexts and no artifact
/// cache. Results are returned in job order regardless of worker
/// scheduling; each job runs in its own fresh CompilerContext, so outputs
/// are byte-identical to a serial run.
std::vector<BatchResult> compileBatch(std::vector<BatchJob> Jobs,
                                      unsigned Threads = 0);

} // namespace mpc

#endif // MPC_DRIVER_BATCH_H
