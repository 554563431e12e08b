//===----------------------------------------------------------------------===//
///
/// \file
/// CompilerContext bundles the long-lived compiler state (names, types,
/// symbols, the managed tree heap, diagnostics, statistics) plus the
/// options that select between the paper's two configurations: fused
/// miniphases vs. one-traversal-per-phase ("Megaphase" split), and the
/// legacy always-copy mode used by the scalac baseline of Figure 9.
///
/// The options configure compilation only. Running the compiled program
/// is not an option: callers construct the tree-walking Interpreter, or
/// linkProgram + VM, themselves, and the linker is the one place the
/// bytecode verifier runs.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_CORE_COMPILERCONTEXT_H
#define MPC_CORE_COMPILERCONTEXT_H

#include "ast/Symbols.h"
#include "ast/Trees.h"
#include "ast/Types.h"
#include "memsim/CacheSim.h"
#include "memsim/ManagedHeap.h"
#include "memsim/PerfCounters.h"
#include "support/CancelToken.h"
#include "support/Diagnostics.h"
#include "support/Statistics.h"
#include "support/NameTable.h"

#include <string>

namespace mpc {

/// How a fused block applies the per-node transforms.
enum class FusionStrategy {
  /// Loop over all phases at each node, consulting the transform mask
  /// (paper's optimization 1 only).
  Naive,
  /// Precomputed per-kind interest lists; on a kind change, re-dispatch
  /// into the new kind's list (paper's optimizations 1 + 2).
  IndexedByKind,
};

/// Tunable behaviour, mirroring the evaluation's configurations.
struct CompilerOptions {
  /// True: miniphases fuse into blocks (Table 2 grouping). False: every
  /// miniphase runs as its own whole-tree traversal (the paper's
  /// "Megaphase" comparison configuration).
  bool FuseMiniphases = true;
  /// Run the TreeChecker between groups (the paper's -Ycheck).
  bool CheckTrees = false;
  /// Disable the copier's node-reuse optimization (scalac-like baseline).
  bool AlwaysCopy = false;
  /// Disable the identity-transform skip (ablation).
  bool IdentitySkip = true;
  /// Generalize the identity skip from nodes to whole subtrees: a fused
  /// block returns a subtree untouched when its kind summary
  /// (Tree::kindsBelow) intersects none of the kinds the block's phases
  /// declared for transform or prepare hooks. Observationally identical —
  /// such a subtree executes zero hooks and the copier would reuse every
  /// node — but skips the traversal entirely. Automatically inactive
  /// under AlwaysCopy (the baseline must copy every node), when
  /// IdentitySkip is off (the ablation invokes all hooks), and when the
  /// cache/perf simulators are attached (so the memsim figures keep
  /// modelling the full walk).
  bool SubtreePruning = true;
  /// Back tree-node storage with the ManagedHeap's size-class slab
  /// allocator instead of one system allocation per node. Affects only
  /// where real bytes live: the simulated allocation clock (Figures 5/6)
  /// is byte-identical with the slab on or off. Off exists for the
  /// allocator-invariance tests and for baseline comparisons of
  /// system-allocator calls (bench_fig5). Takes effect through the
  /// CompilerContext(Opts) constructor or adoptOptions() right after
  /// reset() — the backend cannot change while the heap holds
  /// allocations.
  bool SlabHeap = true;
  FusionStrategy Strategy = FusionStrategy::IndexedByKind;
};

/// One source file being compiled (paper §2: "Every compilation unit is a
/// single source-file which may define multiple top-level classes").
struct CompilationUnit {
  std::string FileName;
  uint32_t FileId = 0;
  std::string Source;
  TreePtr Root;
};

/// The shared compiler state. One per compiler run.
class CompilerContext {
public:
  CompilerContext()
      : Trees(Heap), Syms(Names, Types) {}
  explicit CompilerContext(const CompilerOptions &Opts)
      : Trees(Heap), Syms(Names, Types), Opts(Opts) {
    // No tree has been allocated yet, so the backend toggle is legal.
    Heap.setSlabEnabled(Opts.SlabHeap);
  }
  CompilerContext(const CompilerContext &) = delete;
  CompilerContext &operator=(const CompilerContext &) = delete;

  NameTable &names() { return Names; }
  TypeContext &types() { return Types; }
  ManagedHeap &heap() { return Heap; }
  TreeContext &trees() { return Trees; }
  SymbolTable &syms() { return Syms; }
  DiagnosticEngine &diags() { return Diags; }
  StatsRegistry &stats() { return Stats; }
  CompilerOptions &options() { return Opts; }
  const CompilerOptions &options() const { return Opts; }

  /// Attaches the simulators (instrumented runs only). The tree context
  /// starts performing simulated stores on allocation, and the traversal
  /// driver issues loads/fetches.
  void attachSimulators(CacheSim *CS, PerfCounters *PC) {
    Cache = CS;
    Perf = PC;
    Trees.setCacheSim(CS);
  }
  CacheSim *cacheSim() const { return Cache; }
  PerfCounters *perf() const { return Perf; }

  /// Attaches a cancellation token for the current job (null detaches).
  /// The token is owned by the caller (the batch runner keeps it on its
  /// stack), so whoever sets it must clear it before the context
  /// escapes — reset() also clears it.
  void setCancelToken(const CancelToken *T) { Cancel = T; }
  const CancelToken *cancelToken() const { return Cancel; }

  /// Cooperative cancellation checkpoint: throws DeadlineExceeded when
  /// the attached token (if any) has expired. Stages call this between
  /// units and at phase boundaries — never mid-traversal — so the unwind
  /// only ever crosses RAII-held trees and the context stays recyclable.
  void checkpoint() const {
    if (Cancel)
      Cancel->checkpoint();
  }

  /// Warm-reuse reset (the compile service's ContextPool lifecycle):
  /// restores the context to the observable state of a freshly
  /// constructed one in O(live) — live symbols/types are dropped and the
  /// builtin world is rebuilt, while table capacities and arena slabs
  /// are retained for the next job. Slab pages go back to the process's
  /// page source (PagePool::global()), which keeps them warm for
  /// whichever heap takes a page next.
  /// Precondition: no tree allocated from this context is still
  /// referenced (drop the CompileOutput first); asserted via the heap's
  /// live-byte accounting. Name ordinals, symbol ids, file ids, and the
  /// allocation clock all restart exactly as in a cold context, which is
  /// what makes warm and cold runs byte-identical.
  void reset() {
    assert(Heap.stats().LiveBytes == 0 &&
           "context recycled while trees are still referenced");
    Diags.reset();
    Stats.clear();
    Trees.resetCounters();
    Trees.setCacheSim(nullptr);
    Cache = nullptr;
    Perf = nullptr;
    Cancel = nullptr;
    Types.reset();
    Names.reset();
    Syms.reset(); // re-interns builtins; must follow Names/Types resets
    Heap.reset(); // releases every page; re-arms the slab toggle
    Heap.setSlabEnabled(Opts.SlabHeap);
  }

  /// Applies a new job's options to a recycled context. Legal only right
  /// after reset() (the slab toggle requires an empty heap).
  void adoptOptions(const CompilerOptions &NewOpts) {
    Opts = NewOpts;
    Heap.setSlabEnabled(Opts.SlabHeap);
  }

private:
  NameTable Names;
  TypeContext Types;
  ManagedHeap Heap;
  TreeContext Trees;
  SymbolTable Syms;
  DiagnosticEngine Diags;
  StatsRegistry Stats;
  CompilerOptions Opts;
  CacheSim *Cache = nullptr;
  PerfCounters *Perf = nullptr;
  const CancelToken *Cancel = nullptr;
};

} // namespace mpc

#endif // MPC_CORE_COMPILERCONTEXT_H
