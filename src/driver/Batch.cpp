#include "driver/Batch.h"

#include "ast/TreePrinter.h"
#include "driver/CompileService.h"
#include "support/CancelToken.h"
#include "support/OStream.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace mpc;

//===----------------------------------------------------------------------===//
// Job keys (content-addressed identity)
//===----------------------------------------------------------------------===//

// CACHE-RELEVANCE AUDIT of CompilerOptions. Every field must appear in
// exactly one of these lists; the static_assert below trips when a field
// is added (or one changes size) without extending the audit, so a new
// option can never silently alias cache entries.
//
//   Mixed into the key (affect dumps, diagnostics, or the simulated
//   HeapStats the cache replays):
//     CheckTrees       checker failures surface in output
//     IdentitySkip     node reuse changes allocation clock
//     SubtreePruning   observationally identical, but mixed anyway so the
//                      pruning ablation never shares entries (conservative)
//     Strategy         dispatch strategy, mixed conservatively
//
//   Derived from Kind (compileProgram overwrites both from the job's
//   PipelineKind, which jobKeyFor mixes in, so the job's own values never
//   reach the compile):
//     FuseMiniphases   set to Kind == StandardFused
//     AlwaysCopy       set to Kind == Legacy
//
//   Cache-IRRELEVANT (excluded deliberately):
//     SlabHeap         selects the real-storage backend only; the
//                      simulated stats and all rendered output are
//                      byte-identical either way (pinned by the
//                      SlabAllocatorTest invariance suite), so slab-on
//                      and slab-off jobs may share one cache entry.
//
// Still 12 bytes: six bools, 2 bytes of padding, the 4-byte FusionStrategy.
static_assert(sizeof(CompilerOptions) == 12,
              "CompilerOptions changed: audit the cache-relevance lists "
              "above, extend optionsFingerprint(), then update this size");

namespace {

Fingerprint optionsFingerprint(const CompilerOptions &O) {
  const unsigned char Bits[4] = {
      static_cast<unsigned char>(O.CheckTrees),
      static_cast<unsigned char>(O.IdentitySkip),
      static_cast<unsigned char>(O.SubtreePruning),
      static_cast<unsigned char>(O.Strategy),
  };
  return fingerprintBytes(Bits, sizeof(Bits));
}

} // namespace

Fingerprint mpc::fingerprintSource(const SourceInput &Source) {
  return combine(fingerprintString(Source.FileName),
                 fingerprintString(Source.Text));
}

JobKey mpc::jobKeyFor(const BatchJob &Job) {
  // Domain tag so a JobKey can never collide with a bare source
  // fingerprint someone stores in the same table. Note what is absent
  // below: BatchJob::DeadlineSec is scheduling metadata with no effect
  // on the compiled output, so jobs differing only in it deliberately
  // share one cache entry.
  Fingerprint FP = fingerprintUInt(0x4a4f424bu /* "JOBK" */);
  // Order-sensitive fold: unit order assigns file ids and shapes output.
  for (const SourceInput &S : Job.Sources)
    FP = combine(FP, fingerprintSource(S));
  FP = combine(FP, optionsFingerprint(Job.Options));
  FP = combine(FP, fingerprintUInt(static_cast<uint64_t>(Job.Kind)));
  FP = combine(FP, fingerprintUInt(Job.WantDump ? 1 : 0));
  return JobKey{FP};
}

BatchResult mpc::runBatchJob(BatchJob Job, CompilerContext &Comp) {
  BatchResult R;

  // Arm the job's soft deadline as a stack-local token. The token lives
  // on this frame, so every exit path below detaches it before returning.
  CancelToken Token;
  if (Job.DeadlineSec > 0) {
    Token.armDeadline(CancelToken::Clock::now() +
                      std::chrono::duration_cast<CancelToken::Clock::duration>(
                          std::chrono::duration<double>(Job.DeadlineSec)));
    Comp.setCancelToken(&Token);
  }

  // The output (and with it every tree in the context heap) is local:
  // it dies at return, once the dump below has been rendered.
  CompileOutput Out;
  try {
    Out = compileProgram(Comp, std::move(Job.Sources), Job.Kind);
    R.HadErrors = Comp.diags().hasErrors();
  } catch (const DeadlineExceeded &E) {
    // Checkpoints only throw between units / at phase boundaries, where
    // all trees are RAII-held — the unwind released them, so the context
    // is clean (LiveBytes == 0) and stays recyclable.
    R.Status = JobStatus::DeadlineExceeded;
    R.HadErrors = true;
    R.DiagText = std::string("error: ") + E.what() + "\n";
  } catch (const std::exception &E) {
    // Worker firewall: an arbitrary exception becomes a failed result.
    // Unlike a deadline unwind, the throw site is unknown (it may have
    // interrupted an allocation mid-charge), so the context counts as
    // poisoned — the service discards it rather than recycling.
    R.Status = JobStatus::Faulted;
    R.HadErrors = true;
    R.DiagText = std::string("error: compile job faulted: ") + E.what() + "\n";
  } catch (...) {
    R.Status = JobStatus::Faulted;
    R.HadErrors = true;
    R.DiagText = "error: compile job faulted: unknown exception\n";
  }
  Comp.setCancelToken(nullptr);

  // Render any diagnostics (not just errors): this snapshot is the only
  // place warnings and notes survive the context. On a cancelled/faulted
  // run the explanatory text above takes their place.
  if (R.Status == JobStatus::Ok && !Comp.diags().all().empty()) {
    StringOStream OS;
    Comp.diags().printAll(OS);
    R.DiagText = OS.str();
  }
  R.Heap = Comp.heap().stats();
  R.Timings = Out.Timings;
  if (Job.WantDump && R.Status == JobStatus::Ok) {
    PrintOptions PO;
    PO.ShowTypes = true;
    for (const CompilationUnit &U : Out.Units) {
      R.DumpText += "// === ";
      R.DumpText += U.FileName;
      R.DumpText += " ===\n";
      appendTree(R.DumpText, U.Root.get(), PO);
      R.DumpText += '\n';
    }
  }
  return R;
}

std::vector<BatchResult> mpc::compileBatch(std::vector<BatchJob> Jobs,
                                           unsigned Threads) {
  if (Jobs.empty())
    return {};
  if (Threads == 0)
    Threads = std::max(1u, std::thread::hardware_concurrency());
  ServiceConfig Cfg;
  Cfg.Threads = static_cast<unsigned>(std::min<size_t>(Threads, Jobs.size()));
  Cfg.WarmContexts = false;
  Cfg.Cache.Enabled = false;
  CompileService Service(Cfg);
  for (BatchJob &Job : Jobs)
    Service.enqueue(std::move(Job));
  return Service.drain();
}
