//===----------------------------------------------------------------------===//
///
/// \file
/// The fusion engine (paper Listings 5/6/8 and Figures 2/3).
///
/// A FusedBlock owns the schedule for a group of miniphases and performs
/// one postorder traversal per compilation unit, applying at every node the
/// transforms of all constituent phases in order. The two published
/// optimizations are implemented:
///
///   1. identity-transform skip — phases that declared no interest in a
///      node's kind are never invoked on it;
///   2. same-kind fast path / kind-change re-dispatch — per-kind interest
///      lists are precomputed; while a node keeps its kind, the engine
///      walks the dense list, and when a hook changes the kind it switches
///      to the new kind's list (only phases after the current one run).
///
/// Two engine-level refinements extend them:
///
///   3. subtree pruning — the block's fused interest mask (union of all
///      phases' transform and prepare kind sets) is cached at block
///      construction; walk() returns a subtree untouched when its
///      Tree::kindsBelow summary intersects none of it, since zero hooks
///      would execute inside and the copier would reuse every node;
///   4. flattened dispatch tables — the per-kind interest lists live in
///      one contiguous uint16_t buffer addressed by per-kind
///      offset/length pairs, so the hot dispatch loop reads a single
///      cache-resident block instead of chasing per-kind vector headers;
///   5. prepare-only walks — a subtree whose summary intersects the
///      prepare mask but not the transform mask cannot change (zero
///      transform hooks run anywhere inside), so it is walked by a light
///      hook-only recursion that skips all rebuild bookkeeping and
///      returns the subtree by pointer;
///   6. scratch-buffer rebuilds — the per-node NewKids list lives in one
///      block-owned stack-shaped buffer instead of a fresh heap vector
///      per visited node, and the copier moves straight from that buffer
///      into the (inline-first) child storage of the rebuilt node.
///
/// Prepares (Listing 7/8) run preorder; the matching leave hooks run when
/// the subtree completes. The semantics the paper highlights hold: when
/// phase m transforms node t, t was already transformed by phases before m,
/// and t's children by *all* phases of the block — m "sees the future" in
/// its subtrees (Figure 3).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_CORE_FUSEDBLOCK_H
#define MPC_CORE_FUSEDBLOCK_H

#include "core/Phase.h"

#include <vector>

namespace mpc {

/// A fused group of miniphases executing in a single traversal.
class FusedBlock {
public:
  /// \p Phases in pipeline order. The block does not own the phases.
  explicit FusedBlock(std::vector<MiniPhase *> Phases);

  /// Runs the whole block on one unit: unit prepares, one postorder
  /// traversal, unit transforms.
  void runOnUnit(CompilationUnit &Unit, CompilerContext &Comp);

  /// Transforms a single tree (exposed for unit tests).
  TreePtr transformTree(TreePtr Root, PhaseRunContext &Ctx);

  const std::vector<MiniPhase *> &phases() const { return Phases; }

  /// Traversal statistics for the last/accumulated runs.
  uint64_t nodesVisited() const { return NumVisited; }
  uint64_t hooksExecuted() const { return NumHooks; }
  /// Subtrees returned untouched by the kind-summary prune.
  uint64_t subtreesPruned() const { return NumPruned; }
  /// Subtrees walked in hook-only mode: they contain prepare-interesting
  /// kinds but no transform-interesting ones, so hooks run but all
  /// rebuild bookkeeping is skipped and the subtree is returned as-is.
  uint64_t prepareOnlyWalks() const { return NumPrepareOnly; }
  void resetStats() {
    NumVisited = 0;
    NumHooks = 0;
    NumPruned = 0;
    NumPrepareOnly = 0;
  }

  /// True when any constituent phase declares prepare hooks.
  bool hasPrepares() const { return HasPrepares; }

  /// Union of the constituent phases' transform kind masks, as bits.
  uint32_t fusedTransformMask() const { return TransformBits; }
  /// Union of the constituent phases' prepare kind masks, as bits.
  uint32_t fusedPrepareMask() const { return PrepareBits; }

private:
  /// Offset/length of one kind's slice of a flattened dispatch buffer.
  struct KindRange {
    uint16_t Off = 0;
    uint16_t Len = 0;
  };

  TreePtr walk(Tree *T, PhaseRunContext &Ctx);
  void walkPrepareOnly(Tree *T, PhaseRunContext &Ctx);
  TreePtr applyTransforms(TreePtr Node, PhaseRunContext &Ctx);
  TreePtr applyTransformsNaive(TreePtr Node, PhaseRunContext &Ctx);
  void instrumentVisit(const Tree *T, CompilerContext &Comp);
  void instrumentHook(unsigned PhaseIdx, TreeKind K,
                      CompilerContext &Comp, const Tree *Node);

  std::vector<MiniPhase *> Phases;
  /// Flattened per-kind interest lists: ascending phase indices, one
  /// contiguous buffer per hook class, sliced by KindRange.
  std::vector<uint16_t> TransformBuf;
  std::vector<uint16_t> PrepareBuf;
  KindRange TransformRange[NumTreeKinds];
  KindRange PrepareRange[NumTreeKinds];
  /// Cached fused interest masks (see fusedTransformMask/fusedPrepareMask).
  uint32_t TransformBits = 0;
  uint32_t PrepareBits = 0;
  /// Pruning state for the current transformTree run, split by hook
  /// class: a subtree whose kindsBelow misses both masks is returned
  /// untouched; one that only intersects the prepare mask is walked in
  /// hook-only mode (walkPrepareOnly). Both zero when pruning is
  /// disabled for this run.
  uint32_t ActiveTransformBits = 0;
  uint32_t ActivePrepareBits = 0;
  bool HasPrepares = false;
  uint64_t NumVisited = 0;
  uint64_t NumHooks = 0;
  uint64_t NumPruned = 0;
  uint64_t NumPrepareOnly = 0;
  /// Stack-shaped scratch holding the NewKids of every node on the
  /// current recursion spine; walk() pushes transformed children here and
  /// the copier moves them out, so no per-node vector is ever allocated.
  std::vector<TreePtr> KidScratch;
};

} // namespace mpc

#endif // MPC_CORE_FUSEDBLOCK_H
