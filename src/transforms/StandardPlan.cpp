#include "transforms/StandardPlan.h"

#include "transforms/Phases.h"

using namespace mpc;

PhasePlan mpc::makeStandardPlan(bool Fuse,
                                std::vector<std::string> &Errors) {
  return makeCustomizedPlan(Fuse, Errors,
                            [](std::vector<std::unique_ptr<Phase>> &) {});
}

PhasePlan mpc::makeCustomizedPlan(bool Fuse,
                                  std::vector<std::string> &Errors,
                                  const PlanCustomizer &Customize) {
  std::vector<std::unique_ptr<Phase>> Phases;
  // Block A — normalization.
  Phases.push_back(std::make_unique<RefChecksPhase>());
  Phases.push_back(std::make_unique<FirstTransformPhase>());
  Phases.push_back(std::make_unique<UncurryPhase>());
  Phases.push_back(std::make_unique<ElimRepeatedPhase>());
  Phases.push_back(std::make_unique<ClassOfPhase>());
  Phases.push_back(std::make_unique<LiftTryPhase>());
  Phases.push_back(std::make_unique<TailRecPhase>());
  // Block B — patterns and accessors (PatternMatcher's
  // runsAfterGroupsOf(TailRec) starts the new block).
  Phases.push_back(std::make_unique<PatternMatcherPhase>());
  Phases.push_back(std::make_unique<InterceptedMethodsPhase>());
  Phases.push_back(std::make_unique<SplitterPhase>());
  Phases.push_back(std::make_unique<ElimByNamePhase>());
  Phases.push_back(std::make_unique<GettersPhase>());
  Phases.push_back(std::make_unique<ExplicitOuterPhase>());
  // Erasure — a megaphase, necessarily its own group.
  Phases.push_back(std::make_unique<ErasurePhase>());
  // Block C — traits and fields.
  Phases.push_back(std::make_unique<MixinPhase>());
  Phases.push_back(std::make_unique<LazyValsPhase>());
  Phases.push_back(std::make_unique<MemoizePhase>());
  Phases.push_back(std::make_unique<NonLocalReturnsPhase>());
  Phases.push_back(std::make_unique<CapturedVarsPhase>());
  // Constructors and closures: these fuse with the block above —
  // Constructors rearranges class bodies only at the ClassDef node, after
  // Memoize (an earlier phase of the group) has already extended them at
  // that same visit.
  Phases.push_back(std::make_unique<ConstructorsPhase>());
  Phases.push_back(std::make_unique<FunctionValuesPhase>());
  Phases.push_back(std::make_unique<ElimStaticThisPhase>());
  // Block E — lifting.
  Phases.push_back(std::make_unique<LambdaLiftPhase>());
  Phases.push_back(std::make_unique<FlattenPhase>());
  Phases.push_back(std::make_unique<RestoreScopesPhase>());
  // Block F — backend preparation.
  Phases.push_back(std::make_unique<CollectEntryPointsPhase>());
  Phases.push_back(std::make_unique<FlattenBlocksPhase>());
  Phases.push_back(std::make_unique<LabelDefsPhase>());
  Customize(Phases);
  return PhasePlan::build(std::move(Phases), Fuse, Errors);
}

CollectEntryPointsPhase *mpc::findEntryPoints(const PhasePlan &Plan) {
  for (Phase *P : Plan.phases())
    if (P->name() == "CollectEntryPoints")
      return static_cast<CollectEntryPointsPhase *>(P);
  return nullptr;
}
