#include "driver/Driver.h"

#include "frontend/TypeAssigner.h"
#include "support/Timer.h"

using namespace mpc;

CompileOutput mpc::compileProgram(CompilerContext &Comp,
                                  std::vector<SourceInput> Sources,
                                  PipelineKind Kind) {
  CompileOutput Out;

  bool Fuse = Kind == PipelineKind::StandardFused;
  Comp.options().FuseMiniphases = Fuse;
  Comp.options().AlwaysCopy = Kind == PipelineKind::Legacy;

  // Phase plan is built (and its ordering constraints validated) at
  // startup, before any unit is touched (paper §6.3).
  PhasePlan Plan = makeStandardPlan(Fuse, Out.PlanErrors);
  if (!Out.PlanErrors.empty())
    return Out;
  return compileProgramWithPlan(Comp, std::move(Sources), Plan);
}

CompileOutput mpc::compileProgramWithPlan(CompilerContext &Comp,
                                          std::vector<SourceInput> Sources,
                                          const PhasePlan &Plan) {
  CompileOutput Out;

  // Front end.
  Timer T;
  Out.Units = runFrontEnd(Comp, std::move(Sources));
  Out.Timings.FrontendSec = T.elapsedSeconds();
  if (Comp.diags().hasErrors())
    return Out;
  // Promotions up to here belong to the frontend even when the promoted
  // object (the typed tree) dies mid-transformations.
  Comp.heap().markBoundary();

  // Stage boundary: a deadline that expired during the frontend surfaces
  // here rather than after a full pipeline run.
  Comp.checkpoint();

  // Tree transformation pipeline (Listing 3's loop).
  TreeChecker Checker(makeRetypeChecker());
  TransformPipeline Pipeline(Plan);
  T.reset();
  PipelineResult PR = Pipeline.run(
      Out.Units, Comp, Comp.options().CheckTrees ? &Checker : nullptr);
  Out.Timings.TransformSec = T.elapsedSeconds();
  Out.Groups = std::move(PR.Groups);
  Out.CheckFailures = std::move(PR.CheckFailures);

  // Back end.
  Comp.checkpoint();
  T.reset();
  Out.Prog = generateCode(Out.Units, Comp);
  Out.Timings.BackendSec = T.elapsedSeconds();

  if (auto *CEP = findEntryPoints(Plan)) {
    Out.EntryPoints = CEP->entryPoints();
    Out.Prog.EntryPoints = Out.EntryPoints;
  }
  return Out;
}
