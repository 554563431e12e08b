#include "core/Pipeline.h"

#include "support/FaultInjector.h"
#include "support/Timer.h"

#include <cassert>
#include <optional>

using namespace mpc;

GroupReport mpc::sumGroups(const std::vector<GroupReport> &Groups) {
  GroupReport Sum;
  for (const GroupReport &G : Groups) {
    Sum.Sec += G.Sec;
    Sum.NodesVisited += G.NodesVisited;
    Sum.HooksExecuted += G.HooksExecuted;
    Sum.SubtreesPruned += G.SubtreesPruned;
    Sum.PrepareOnlyWalks += G.PrepareOnlyWalks;
    Sum.RealAllocs += G.RealAllocs;
  }
  return Sum;
}

PipelineResult TransformPipeline::run(std::vector<CompilationUnit> &Units,
                                      CompilerContext &Comp,
                                      const TreeChecker *Checker) const {
  PipelineResult Result;
  bool Check = Comp.options().CheckTrees;
  assert((!Check || Checker) && "CheckTrees requires a TreeChecker");

  const SlabAllocator::Stats &Backend = Comp.heap().backendStats();
  const auto &Groups = Plan.groups();
  for (size_t G = 0; G < Groups.size(); ++G) {
    const PhaseGroup &Group = Groups[G];
    // Unfused groups hold exactly one phase (PhasePlan::build).
    assert((Group.isFused() || Group.Members.size() == 1) &&
           "an unfused group is a single phase");
    Phase *First = Group.Members.front();
    // A lone miniphase walks as a single-phase block (Listing 4), as in
    // MiniPhase::runOnUnit, but one whose counters the report can read.
    std::optional<FusedBlock> Solo;
    FusedBlock *Block = Group.Block.get();
    if (!Block && First->isMini())
      Block = &Solo.emplace(
          std::vector<MiniPhase *>{static_cast<MiniPhase *>(First)});

    // Blocks accumulate their counters across runs, so this run's share
    // is the delta around the unit loop.
    GroupReport &Entry = Result.Groups.emplace_back();
    Entry.Name = First->name();
    uint64_t Visited0 = Block ? Block->nodesVisited() : 0;
    uint64_t Hooks0 = Block ? Block->hooksExecuted() : 0;
    uint64_t Pruned0 = Block ? Block->subtreesPruned() : 0;
    uint64_t PrepOnly0 = Block ? Block->prepareOnlyWalks() : 0;
    uint64_t Allocs0 = Backend.SystemCalls;
    Timer T;
    // One whole-tree traversal over all units (Listing 3's phase-outer /
    // unit-inner loop; Figure 2/3 when the group is fused).
    for (CompilationUnit &Unit : Units) {
      // Phase-entry fault point + cancellation checkpoint: both fire
      // between traversals only, so an unwind from here crosses nothing
      // but RAII-held trees (a block's runOnUnit runs its own checkpoint).
      faultStagePoint(FaultSite::PhaseEntry);
      if (Block) {
        Block->runOnUnit(Unit, Comp);
      } else {
        Comp.checkpoint();
        First->runOnUnit(Unit, Comp);
      }
    }
    Entry.Sec = T.elapsedSeconds();
    Entry.RealAllocs = Backend.SystemCalls - Allocs0;
    if (Block) {
      Entry.NodesVisited = Block->nodesVisited() - Visited0;
      Entry.HooksExecuted = Block->hooksExecuted() - Hooks0;
      Entry.SubtreesPruned = Block->subtreesPruned() - Pruned0;
      Entry.PrepareOnlyWalks = Block->prepareOnlyWalks() - PrepOnly0;
    }

    if (Check) {
      std::vector<Phase *> Executed = Plan.phasesUpTo(G);
      const std::string &After = Group.Members.back()->name();
      for (CompilationUnit &Unit : Units) {
        auto Failures = Checker->check(Unit, Executed, Comp, After);
        for (CheckFailure &F : Failures)
          Result.CheckFailures.push_back(std::move(F));
      }
    }
  }
  return Result;
}
