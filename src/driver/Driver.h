//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler driver: frontend -> transformation pipeline -> code
/// generator. This is the one place the three stages run in sequence, and
/// its CompileOutput is the one report of a compile: per-stage wall-clock
/// timings (the measurements of the paper's Figures 4 and 9) and one
/// GroupReport per plan group. The driver also marks the simulated
/// heap's frontend/transform boundary, so Comp.heap().stats() attributes
/// tenuring to the stage that promoted (Figure 6).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_DRIVER_DRIVER_H
#define MPC_DRIVER_DRIVER_H

#include "backend/Bytecode.h"
#include "backend/CodeGen.h"
#include "core/Pipeline.h"
#include "frontend/Frontend.h"
#include "transforms/StandardPlan.h"

#include <string>
#include <vector>

namespace mpc {

/// Which pipeline to run.
enum class PipelineKind {
  /// Miniphases fused into blocks (the paper's Dotty configuration).
  StandardFused,
  /// Every miniphase its own traversal (the Megaphase comparison).
  StandardUnfused,
  /// scalac-like baseline: unfused + always-copy copier (Figure 9).
  Legacy,
};

/// Per-stage times in seconds (Figure 4's bars).
struct CompileTimings {
  double FrontendSec = 0;
  double TransformSec = 0;
  double BackendSec = 0;
  /// Time the job sat in the compile service's admission queue before a
  /// worker picked it up (0 outside the service). Set by the service per
  /// request — even on a cache replay, where the compile-stage fields are
  /// the cached copy but the wait is this request's own.
  double QueueWaitSec = 0;

  /// Compile time only; queue wait is service overhead, not compilation,
  /// so it stays out of the per-stage total.
  double totalSec() const {
    return FrontendSec + TransformSec + BackendSec;
  }
};

/// Everything a compiler run produces.
struct CompileOutput {
  std::vector<CompilationUnit> Units; // fully lowered trees
  Program Prog;                       // generated bytecode
  CompileTimings Timings;
  /// One entry per plan group, in plan order (TransformPipeline::run);
  /// the entry count is the number of whole-tree traversals. Empty when
  /// the frontend reported errors.
  std::vector<GroupReport> Groups;
  std::vector<CheckFailure> CheckFailures;
  std::vector<std::string> PlanErrors;
  std::vector<Symbol *> EntryPoints;
};

/// Runs the whole compiler over \p Sources using \p Kind's pipeline.
/// Honors Comp.options() (CheckTrees, fusion strategy, ...); the fusion
/// flag and AlwaysCopy are set from \p Kind.
CompileOutput compileProgram(CompilerContext &Comp,
                             std::vector<SourceInput> Sources,
                             PipelineKind Kind);

/// Runs the whole compiler with a caller-supplied (possibly customized)
/// phase plan — see makeCustomizedPlan. The plan must already be
/// validated; Comp.options() selects fusion strategy and checking.
CompileOutput compileProgramWithPlan(CompilerContext &Comp,
                                     std::vector<SourceInput> Sources,
                                     const PhasePlan &Plan);

} // namespace mpc

#endif // MPC_DRIVER_DRIVER_H
