//===----------------------------------------------------------------------===//
///
/// \file
/// The transformation-pipeline executor (paper Listing 3): phases outer,
/// compilation units inner. A fused group counts as one "phase" of the
/// loop; in the unfused configuration every miniphase is its own pass —
/// this loop ordering is what makes whole-tree re-traversals cache-hostile
/// and is precisely what the evaluation measures.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_CORE_PIPELINE_H
#define MPC_CORE_PIPELINE_H

#include "core/PhasePlan.h"
#include "core/TreeChecker.h"

#include <string>
#include <vector>

namespace mpc {

/// One plan group's share of a pipeline run, the unit the paper charges
/// transformation cost to. Fused and unfused runs report alike — an unfused miniphase
/// group reports the counters of its single-phase walk. A megaphase
/// (Erasure) reports time and allocations; its walk counters stay zero.
struct GroupReport {
  /// The group's first phase (Table 2's block names).
  std::string Name;
  /// Wall time of the group's traversals over all units (checker excluded).
  double Sec = 0;
  /// Fusion-engine counters (see FusedBlock).
  uint64_t NodesVisited = 0;
  uint64_t HooksExecuted = 0;
  uint64_t SubtreesPruned = 0;
  uint64_t PrepareOnlyWalks = 0;
  /// System-allocator calls of the heap's real-storage backend.
  uint64_t RealAllocs = 0;
};

/// Whole-run totals: every counter of \p Groups summed (Name is empty).
GroupReport sumGroups(const std::vector<GroupReport> &Groups);

/// Outcome of a pipeline run.
struct PipelineResult {
  /// One entry per plan group, in plan order. Each group is one
  /// whole-tree traversal, so the entry count is the traversal count.
  std::vector<GroupReport> Groups;
  /// TreeChecker failures, if checking was enabled.
  std::vector<CheckFailure> CheckFailures;
};

/// Executes a PhasePlan over the units of a compilation run.
class TransformPipeline {
public:
  explicit TransformPipeline(const PhasePlan &Plan) : Plan(Plan) {}

  /// Runs all groups. When CompilerOptions::CheckTrees is set, \p Checker
  /// (must be non-null then) runs after every group on every unit.
  PipelineResult run(std::vector<CompilationUnit> &Units,
                     CompilerContext &Comp,
                     const TreeChecker *Checker = nullptr) const;

private:
  const PhasePlan &Plan;
};

} // namespace mpc

#endif // MPC_CORE_PIPELINE_H
