#include "core/FusedBlock.h"

#include <cassert>

using namespace mpc;

Phase::~Phase() = default;

TreePtr MiniPhase::dispatchTransform(Tree *T, PhaseRunContext &Ctx) {
  switch (T->kind()) {
#define TREE_KIND(Name)                                                        \
  case TreeKind::Name:                                                         \
    return transform##Name(cast<Name>(T), Ctx);
#include "ast/TreeKinds.def"
  }
  assert(false && "unhandled tree kind in dispatchTransform");
  return TreePtr(T);
}

void MiniPhase::dispatchPrepare(Tree *T, PhaseRunContext &Ctx) {
  switch (T->kind()) {
#define TREE_KIND(Name)                                                        \
  case TreeKind::Name:                                                         \
    prepareFor##Name(cast<Name>(T), Ctx);                                      \
    return;
#include "ast/TreeKinds.def"
  }
  assert(false && "unhandled tree kind in dispatchPrepare");
}

void MiniPhase::dispatchLeave(Tree *T, PhaseRunContext &Ctx) {
  switch (T->kind()) {
#define TREE_KIND(Name)                                                        \
  case TreeKind::Name:                                                         \
    leave##Name(cast<Name>(T), Ctx);                                           \
    return;
#include "ast/TreeKinds.def"
  }
  assert(false && "unhandled tree kind in dispatchLeave");
}

void MiniPhase::runOnUnit(CompilationUnit &Unit, CompilerContext &Comp) {
  // Listing 4: a miniphase run standalone is a single-phase fused block.
  FusedBlock Solo({this});
  Solo.runOnUnit(Unit, Comp);
}

//===----------------------------------------------------------------------===//
// FusedBlock
//===----------------------------------------------------------------------===//

FusedBlock::FusedBlock(std::vector<MiniPhase *> Ps) : Phases(std::move(Ps)) {
  // Phase indices and buffer offsets are stored as uint16_t; the buffers
  // hold at most NumTreeKinds * Phases.size() entries, so this bound
  // keeps every offset cast below exact.
  assert(Phases.size() * NumTreeKinds <= UINT16_MAX &&
         "too many phases in a block for the flattened dispatch tables");
  // Flattened dispatch tables: for each kind, the ascending indices of
  // interested phases, laid out back-to-back in one buffer per hook class
  // and addressed by offset/length. The fused interest masks fall out of
  // the same pass and are cached for subtree pruning.
  for (unsigned K = 0; K < NumTreeKinds; ++K) {
    TreeKind Kind = static_cast<TreeKind>(K);
    TransformRange[K].Off = static_cast<uint16_t>(TransformBuf.size());
    PrepareRange[K].Off = static_cast<uint16_t>(PrepareBuf.size());
    for (unsigned P = 0; P < Phases.size(); ++P) {
      if (Phases[P]->transformKinds().contains(Kind))
        TransformBuf.push_back(static_cast<uint16_t>(P));
      if (Phases[P]->prepareKinds().contains(Kind)) {
        PrepareBuf.push_back(static_cast<uint16_t>(P));
        HasPrepares = true;
      }
    }
    TransformRange[K].Len =
        static_cast<uint16_t>(TransformBuf.size() - TransformRange[K].Off);
    PrepareRange[K].Len =
        static_cast<uint16_t>(PrepareBuf.size() - PrepareRange[K].Off);
    if (TransformRange[K].Len)
      TransformBits |= 1u << K;
    if (PrepareRange[K].Len)
      PrepareBits |= 1u << K;
  }
}

void FusedBlock::runOnUnit(CompilationUnit &Unit, CompilerContext &Comp) {
  // Cancellation checkpoint at the phase boundary: the traversal below is
  // uninterruptible, so an expired deadline surfaces here — before the
  // walk — bounding cancellation latency to one fused group per unit.
  Comp.checkpoint();
  PhaseRunContext Ctx{Comp, Unit};
  // §4.2: per-unit initialization of every constituent phase, in order.
  for (MiniPhase *P : Phases)
    P->prepareForUnit(Ctx);
  TreePtr Root = Unit.Root;
  Root = transformTree(std::move(Root), Ctx);
  // §4.2: per-unit finalization (state cleanup / final rewrites).
  for (MiniPhase *P : Phases)
    Root = P->transformUnit(std::move(Root), Ctx);
  Unit.Root = std::move(Root);
}

TreePtr FusedBlock::transformTree(TreePtr Root, PhaseRunContext &Ctx) {
  assert(Root && "transformTree requires a root");
  // Subtree pruning: a subtree whose kind summary intersects neither the
  // fused transform mask nor the fused prepare mask executes zero hooks,
  // so walking it could only reproduce it node-for-node — skip it. For a
  // prepare-free block the prune mask degenerates to the pure transform
  // mask. Disabled under AlwaysCopy (the baseline copies every node
  // regardless of hooks), when IdentitySkip is off (the ablation invokes
  // undeclared hooks too), and under perf instrumentation (the memsim
  // figures model the full walk).
  bool Prune = Ctx.pruneSubtrees();
  ActiveTransformBits = Prune ? TransformBits : 0;
  ActivePrepareBits = Prune ? PrepareBits : 0;
  assert(KidScratch.empty() && "scratch leaked from a previous run");
  return walk(Root.get(), Ctx);
}

/// The single postorder traversal shared by all phases of the block
/// (paper Listing 4 generalized to a phase vector).
TreePtr FusedBlock::walk(Tree *T, PhaseRunContext &Ctx) {
  CompilerContext &Comp = Ctx.Comp;

  if (uint32_t ActiveBits = ActiveTransformBits | ActivePrepareBits) {
    uint32_t Below = T->kindsBelow();
    // Nothing below this node interests any constituent phase: no hook of
    // any class would run and the copier would reuse every node, so the
    // subtree is returned untouched without being visited.
    if ((Below & ActiveBits) == 0) {
      ++NumPruned;
      return TreePtr(T);
    }
    // Prepare-only subtree: prepare/leave hooks must still fire inside,
    // but zero transform hooks can run anywhere below, so the result is
    // this very subtree — walk it hook-only, skipping all rebuild
    // bookkeeping (no scratch kids, no copier calls).
    if ((Below & ActiveTransformBits) == 0) {
      ++NumPrepareOnly;
      walkPrepareOnly(T, Ctx);
      return TreePtr(T);
    }
  }

  ++NumVisited;
  if (Comp.perf())
    instrumentVisit(T, Comp);

  // Prepares run on subtree entry (Listing 7).
  KindRange PR = PrepareRange[static_cast<unsigned>(T->kind())];
  const uint16_t *Preps = PrepareBuf.data() + PR.Off;
  for (unsigned I = 0; I < PR.Len; ++I)
    Phases[Preps[I]]->dispatchPrepare(T, Ctx);

  // Recurse into children, then rebuild the node if any child changed
  // (withNewChildren applies the reuse optimization; AlwaysCopy disables
  // it for the scalac-baseline configuration). The transformed children
  // go into the block's stack-shaped scratch buffer — slots are indexed
  // from Base because recursion may grow (and reallocate) the buffer.
  TreePtr Reconstructed;
  unsigned N = T->numKids();
  if (N == 0) {
    Reconstructed = TreePtr(T);
  } else {
    size_t Base = KidScratch.size();
    bool Changed = Comp.options().AlwaysCopy;
    for (unsigned I = 0; I < N; ++I) {
      Tree *Kid = T->kid(I);
      if (!Kid) {
        KidScratch.emplace_back();
        continue;
      }
      TreePtr NewKid = walk(Kid, Ctx);
      if (NewKid.get() != Kid)
        Changed = true;
      KidScratch.push_back(std::move(NewKid));
    }
    if (!Changed)
      Reconstructed = TreePtr(T);
    else if (Comp.options().AlwaysCopy)
      Reconstructed =
          Comp.trees().withNewChildrenForced(T, KidScratch.data() + Base, N);
    else
      Reconstructed =
          Comp.trees().withNewChildren(T, KidScratch.data() + Base, N);
    KidScratch.resize(Base);
  }

  // Apply the fused transforms bottom-up (Listings 5/6, Figures 2/3).
  TreePtr Out =
      Comp.options().Strategy == FusionStrategy::IndexedByKind
          ? applyTransforms(std::move(Reconstructed), Ctx)
          : applyTransformsNaive(std::move(Reconstructed), Ctx);

  // Balanced leave hooks (reverse order), restoring scoped phase state.
  for (unsigned I = PR.Len; I > 0; --I)
    Phases[Preps[I - 1]]->dispatchLeave(T, Ctx);

  return Out;
}

/// Hook-only recursion for subtrees with prepare interest but no
/// transform interest: fires the same preorder prepare / postorder leave
/// sequence the full walk would, prunes hook-free sub-subtrees the same
/// way, but never touches the scratch buffer or the copier (the caller
/// returns the subtree by pointer).
void FusedBlock::walkPrepareOnly(Tree *T, PhaseRunContext &Ctx) {
  if ((T->kindsBelow() & ActivePrepareBits) == 0) {
    ++NumPruned;
    return;
  }
  ++NumVisited;

  KindRange PR = PrepareRange[static_cast<unsigned>(T->kind())];
  const uint16_t *Preps = PrepareBuf.data() + PR.Off;
  for (unsigned I = 0; I < PR.Len; ++I)
    Phases[Preps[I]]->dispatchPrepare(T, Ctx);

  unsigned N = T->numKids();
  for (unsigned I = 0; I < N; ++I)
    if (Tree *Kid = T->kid(I))
      walkPrepareOnly(Kid, Ctx);

  for (unsigned I = PR.Len; I > 0; --I)
    Phases[Preps[I - 1]]->dispatchLeave(T, Ctx);
}

/// Optimized transform application: per-kind interest lists plus
/// re-dispatch on kind change (paper Listing 6).
TreePtr FusedBlock::applyTransforms(TreePtr Node, PhaseRunContext &Ctx) {
  CompilerContext &Comp = Ctx.Comp;
  bool Instrument = Comp.perf() != nullptr;
  unsigned NextPhase = 0;
  while (true) {
    TreeKind K = Node->kind();
    KindRange R = TransformRange[static_cast<unsigned>(K)];
    const uint16_t *List = TransformBuf.data() + R.Off;
    // Find the first interested phase at or after NextPhase. Slices are
    // short (a handful of phases per kind); linear scan over the
    // contiguous buffer beats binary search here.
    unsigned P = ~0u;
    for (unsigned I = 0; I < R.Len; ++I) {
      if (List[I] >= NextPhase) {
        P = List[I];
        break;
      }
    }
    if (P == ~0u)
      return Node;
    ++NumHooks;
    if (Instrument)
      instrumentHook(P, K, Comp, Node.get());
    TreePtr Next = Phases[P]->dispatchTransform(Node.get(), Ctx);
    assert(Next && "transform hooks must return a tree");
    NextPhase = P + 1;
    Node = std::move(Next);
    // If the kind is unchanged the loop continues in the same list (fast
    // path); otherwise the next iteration re-dispatches into the new
    // kind's list — exactly the paper's "second.transform(other)".
  }
}

/// Baseline strategy for the ablation benchmark: consult every phase's
/// mask at every node (no per-kind lists). With IdentitySkip disabled it
/// invokes every hook unconditionally, modelling fusion without the
/// paper's optimization 1.
TreePtr FusedBlock::applyTransformsNaive(TreePtr Node, PhaseRunContext &Ctx) {
  CompilerContext &Comp = Ctx.Comp;
  bool Skip = Comp.options().IdentitySkip;
  bool Instrument = Comp.perf() != nullptr;
  for (unsigned P = 0; P < Phases.size(); ++P) {
    TreeKind K = Node->kind();
    if (Skip && !Phases[P]->transformKinds().contains(K))
      continue;
    ++NumHooks;
    if (Instrument)
      instrumentHook(P, K, Comp, Node.get());
    TreePtr Next = Phases[P]->dispatchTransform(Node.get(), Ctx);
    assert(Next && "transform hooks must return a tree");
    Node = std::move(Next);
  }
  return Node;
}

//===----------------------------------------------------------------------===//
// Instrumentation (cache/perf simulation)
//===----------------------------------------------------------------------===//

namespace {
/// Synthetic code addresses for the icache model. Each phase's transform
/// code occupies its own region; the traversal driver has one too. The
/// base is far above any malloc'd heap address we will touch as data.
constexpr uint64_t CodeBase = 0x7e0000000000ull;
constexpr uint64_t DriverCode = CodeBase;
constexpr uint64_t PhaseCodeBytes = 3072; // ~3KB of code per phase
constexpr uint64_t DriverFetchBytes = 128;
constexpr uint64_t HookFetchBytes = 192;
} // namespace

void FusedBlock::instrumentVisit(const Tree *T, CompilerContext &Comp) {
  CacheSim *CS = Comp.cacheSim();
  PerfCounters *PC = Comp.perf();
  // The walker reads the node header and its child list.
  CS->load(reinterpret_cast<uint64_t>(T), 48);
  if (T->numKids())
    CS->load(reinterpret_cast<uint64_t>(T->kids().data()),
             8 * T->numKids());
  // Driver straight-line code.
  CS->fetch(DriverCode, DriverFetchBytes);
  PC->instructions(24 + 2 * T->numKids());
}

void FusedBlock::instrumentHook(unsigned PhaseIdx, TreeKind K,
                                CompilerContext &Comp, const Tree *Node) {
  CacheSim *CS = Comp.cacheSim();
  PerfCounters *PC = Comp.perf();
  // Each executed hook touches a kind-dependent slice of its phase's code,
  // re-reads the node and its type, and works on the phase's own (hot)
  // scratch state — the transformation work proper, which is identical
  // under both the fused and the unfused configuration.
  uint64_t Region = CodeBase + PhaseCodeBytes * (1 + PhaseIdx);
  uint64_t Offset = (static_cast<uint64_t>(K) * 7 % 16) * 192;
  CS->fetch(Region + Offset % PhaseCodeBytes, HookFetchBytes);
  CS->load(reinterpret_cast<uint64_t>(Node), 48);
  if (Node->type())
    CS->load(reinterpret_cast<uint64_t>(Node->type()), 24);
  uint64_t Scratch = Region + PhaseCodeBytes - 256;
  CS->load(Scratch, 64);
  CS->store(Scratch, 32);
  PC->instructions(55);
}
