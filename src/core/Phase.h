//===----------------------------------------------------------------------===//
///
/// \file
/// Phase and MiniPhase (paper Listing 4 and Listing 7).
///
/// A Phase is an arbitrary whole-unit transformation. A MiniPhase instead
/// overrides per-node-kind transform hooks (and optionally prepare hooks)
/// and *declares* which kinds it touches; the framework fuses consecutive
/// miniphases into a single postorder traversal (see FusedBlock).
///
/// Ordering constraints (paper §6.3): runsAfter names phases that must
/// precede this one in the pipeline; runsAfterGroupsOf names phases that
/// must have *finished the whole compilation unit* — i.e. live in a
/// strictly earlier group — before this one runs. Both are validated at
/// compiler startup by PhasePlan.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_CORE_PHASE_H
#define MPC_CORE_PHASE_H

#include "core/CompilerContext.h"

#include <string>
#include <vector>

namespace mpc {

class MiniPhase;

/// Per-run state handed to every hook invocation.
struct PhaseRunContext {
  CompilerContext &Comp;
  CompilationUnit &Unit;

  TreeContext &trees() const { return Comp.trees(); }
  TypeContext &types() const { return Comp.types(); }
  SymbolTable &syms() const { return Comp.syms(); }

  /// True when walks over this run may skip a subtree by its
  /// Tree::kindsBelow summary: SubtreePruning is on, and neither the
  /// AlwaysCopy baseline, the IdentitySkip ablation nor the attached
  /// perf simulators need the full walk. The fusion engine and the
  /// unit-prepare analyses share this one condition.
  bool pruneSubtrees() const {
    const CompilerOptions &Opts = Comp.options();
    return Opts.SubtreePruning && Opts.IdentitySkip && !Opts.AlwaysCopy &&
           !Comp.perf();
  }
};

/// Base class of all pipeline phases.
class Phase {
public:
  Phase(std::string PhaseName, std::string Description)
      : PhaseName(std::move(PhaseName)), Description(std::move(Description)) {}
  virtual ~Phase();

  const std::string &name() const { return PhaseName; }
  const std::string &description() const { return Description; }

  virtual bool isMini() const { return false; }

  /// Runs the phase on one compilation unit (megaphase entry point; for a
  /// MiniPhase this performs a standalone single-phase traversal).
  virtual void runOnUnit(CompilationUnit &Unit, CompilerContext &Comp) = 0;

  /// Postcondition established by this phase, re-checked on every subtree
  /// by the TreeChecker after this and every later phase (Listing 9).
  /// Returns true when \p T satisfies the condition.
  virtual bool checkPostCondition(const Tree *T, CompilerContext &Comp) const {
    (void)T;
    (void)Comp;
    return true;
  }

  const std::vector<std::string> &runsAfter() const { return RunsAfter; }
  const std::vector<std::string> &runsAfterGroupsOf() const {
    return RunsAfterGroups;
  }

protected:
  void addRunsAfter(std::string Other) {
    RunsAfter.push_back(std::move(Other));
  }
  void addRunsAfterGroupsOf(std::string Other) {
    RunsAfterGroups.push_back(std::move(Other));
  }

private:
  std::string PhaseName;
  std::string Description;
  std::vector<std::string> RunsAfter;
  std::vector<std::string> RunsAfterGroups;
};

/// A fusible tree transformation with per-kind hooks (Listings 4 and 7).
///
/// Subclasses override transformX / prepareForX / leaveX for the node kinds
/// they care about and must declare those kinds in the constructor via
/// declareTransforms / declarePrepares — the framework skips undeclared
/// hooks entirely (the paper's identity-transform optimization). The
/// HookAudit test fixture cross-checks declarations against behaviour.
class MiniPhase : public Phase {
public:
  using Phase::Phase;

  bool isMini() const final { return true; }

  /// Standalone execution: a single-phase traversal (paper Listing 4).
  void runOnUnit(CompilationUnit &Unit, CompilerContext &Comp) override;

  // Per-kind transform hooks; defaults are identity.
#define TREE_KIND(Name)                                                        \
  virtual TreePtr transform##Name(Name *T, PhaseRunContext &Ctx) {             \
    (void)Ctx;                                                                 \
    return TreePtr(T);                                                         \
  }
#include "ast/TreeKinds.def"

  // Per-kind prepare hooks, run preorder on subtree entry; the matching
  // leave hook runs when the node's processing completes, restoring
  // stack-discipline phase state (our analogue of Dotty's scoped contexts).
#define TREE_KIND(Name)                                                        \
  virtual void prepareFor##Name(Name *T, PhaseRunContext &Ctx) {               \
    (void)T;                                                                   \
    (void)Ctx;                                                                 \
  }                                                                            \
  virtual void leave##Name(Name *T, PhaseRunContext &Ctx) {                    \
    (void)T;                                                                   \
    (void)Ctx;                                                                 \
  }
#include "ast/TreeKinds.def"

  /// Unit-level initialization (§4.2): populate per-unit phase state.
  virtual void prepareForUnit(PhaseRunContext &Ctx) { (void)Ctx; }
  /// Unit-level finalization (§4.2): clear per-unit state, final rewrites.
  virtual TreePtr transformUnit(TreePtr Root, PhaseRunContext &Ctx) {
    (void)Ctx;
    return Root;
  }

  /// Kind masks declared by the subclass.
  const KindSet &transformKinds() const { return TransformMask; }
  const KindSet &prepareKinds() const { return PrepareMask; }

  /// Kind-dispatched entry points used by the fusion engine.
  TreePtr dispatchTransform(Tree *T, PhaseRunContext &Ctx);
  void dispatchPrepare(Tree *T, PhaseRunContext &Ctx);
  void dispatchLeave(Tree *T, PhaseRunContext &Ctx);

protected:
  void declareTransforms(KindSet Kinds) { TransformMask = Kinds; }
  void declarePrepares(KindSet Kinds) { PrepareMask = Kinds; }

private:
  KindSet TransformMask;
  KindSet PrepareMask;
};

} // namespace mpc

#endif // MPC_CORE_PHASE_H
