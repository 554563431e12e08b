//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline assembly: the standard (Dotty-like, Table 2) phase plan with
/// its six fusion blocks plus the Erasure megaphase. Built unfused, the
/// same plan is the legacy (scalac-like, Table 1) pass list of the
/// Figure 9 baseline: every phase its own traversal.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_TRANSFORMS_STANDARDPLAN_H
#define MPC_TRANSFORMS_STANDARDPLAN_H

#include "core/PhasePlan.h"
#include "transforms/Phases.h"

#include <functional>

namespace mpc {

/// Builds the standard transformation pipeline. With \p Fuse the
/// miniphases fuse into blocks (the paper's Miniphase configuration);
/// without it every phase is a separate traversal (the Megaphase
/// configuration of the evaluation). Ordering constraints are validated;
/// errors are appended to \p Errors.
PhasePlan makeStandardPlan(bool Fuse, std::vector<std::string> &Errors);

/// Edits the phase list of a plan under construction (insert custom
/// phases, drop or reorder standard ones).
using PlanCustomizer =
    std::function<void(std::vector<std::unique_ptr<Phase>> &)>;

/// Like makeStandardPlan, but runs \p Customize on the standard phase
/// list before the plan is built and its ordering constraints validated —
/// the entry point for downstream users adding their own miniphases.
/// A customized miniphase fuses into the surrounding block like any
/// standard phase: extending the pipeline costs no extra traversal.
PhasePlan makeCustomizedPlan(bool Fuse, std::vector<std::string> &Errors,
                             const PlanCustomizer &Customize);

/// Returns the CollectEntryPoints phase of a plan (for the backend), or
/// null.
CollectEntryPointsPhase *findEntryPoints(const PhasePlan &Plan);

} // namespace mpc

#endif // MPC_TRANSFORMS_STANDARDPLAN_H
