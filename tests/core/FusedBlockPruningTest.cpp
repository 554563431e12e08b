//===----------------------------------------------------------------------===//
// Subtree-pruning correctness: the fusion engine may return a subtree
// untouched when its kind summary (Tree::kindsBelow) intersects neither
// the block's fused transform mask nor its fused prepare mask. These
// tests pin down that the optimization is observationally invisible —
// identical lowered trees, identical hook sequences — while actually
// firing (subtreesPruned > 0, strictly fewer nodes visited).
//===----------------------------------------------------------------------===//

#include "ast/TreePrinter.h"
#include "ast/TreeUtils.h"
#include "core/FusedBlock.h"
#include "core/Pipeline.h"
#include "frontend/Frontend.h"
#include "transforms/StandardPlan.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

/// One standard-plan pipeline run over a generated workload.
struct LoweredRun {
  std::vector<std::string> Dumps; // exact tree dumps, one per unit
  PipelineResult Result;
  GroupReport Sum; // whole-run totals over Result.Groups
  /// Per fused block, plan order: counters read off the blocks.
  std::vector<GroupReport> Blocks;
};

LoweredRun lowerWorkload(const WorkloadProfile &Profile, bool Pruning) {
  LoweredRun Run;
  CompilerContext Comp;
  Comp.options().SubtreePruning = Pruning;
  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(/*Fuse=*/true, Errors);
  EXPECT_TRUE(Errors.empty());
  std::vector<CompilationUnit> Units =
      runFrontEnd(Comp, generateWorkload(Profile));
  EXPECT_FALSE(Comp.diags().hasErrors());
  TransformPipeline Pipeline(Plan);
  Run.Result = Pipeline.run(Units, Comp);
  PrintOptions PO;
  PO.ShowTypes = true;
  for (const CompilationUnit &U : Units)
    Run.Dumps.push_back(treeToString(U.Root.get(), PO));
  Run.Sum = sumGroups(Run.Result.Groups);
  for (FusedBlock *B : Plan.fusedBlocks()) {
    GroupReport &E = Run.Blocks.emplace_back();
    E.NodesVisited = B->nodesVisited();
    E.SubtreesPruned = B->subtreesPruned();
  }
  return Run;
}

class StandardPlanPruning : public ::testing::TestWithParam<int> {};

// Pruning on vs off over a generated corpus: byte-identical lowered
// trees. Unlike the fused-vs-unfused differential, no fresh-name
// normalization is allowed here — pruning skips only subtrees in which
// zero hooks would run, so even name counters must agree exactly.
TEST_P(StandardPlanPruning, LoweredTreesAreIdentical) {
  WorkloadProfile Profile =
      GetParam() == 0 ? stdlibProfile(0.05) : dottyProfile(0.04);
  Profile.UnitsHint = 4;
  LoweredRun On = lowerWorkload(Profile, /*Pruning=*/true);
  LoweredRun Off = lowerWorkload(Profile, /*Pruning=*/false);

  ASSERT_EQ(On.Dumps.size(), Off.Dumps.size());
  for (size_t I = 0; I < On.Dumps.size(); ++I)
    EXPECT_EQ(On.Dumps[I], Off.Dumps[I]) << "unit " << I;

  // The optimization must actually fire on the standard plan...
  EXPECT_GT(On.Sum.SubtreesPruned, 0u);
  EXPECT_LT(On.Sum.NodesVisited, Off.Sum.NodesVisited);
  // ...and never when disabled.
  EXPECT_EQ(Off.Sum.SubtreesPruned, 0u);
  // Identical work reaches the hooks either way.
  EXPECT_EQ(On.Sum.HooksExecuted, Off.Sum.HooksExecuted);
  // The whole-run sums are the sums of the blocks' own counters.
  uint64_t BlockVisited = 0, BlockPruned = 0;
  for (const GroupReport &B : On.Blocks) {
    BlockVisited += B.NodesVisited;
    BlockPruned += B.SubtreesPruned;
  }
  EXPECT_EQ(On.Sum.NodesVisited, BlockVisited);
  EXPECT_EQ(On.Sum.SubtreesPruned, BlockPruned);
}

INSTANTIATE_TEST_SUITE_P(Workloads, StandardPlanPruning,
                         ::testing::Values(0, 1),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return Info.param == 0 ? std::string("stdlib")
                                                  : std::string("dotty");
                         });

//===----------------------------------------------------------------------===//
// Hand-built block: hook sequences and node identity under pruning.
//===----------------------------------------------------------------------===//

/// Logs every hook; transforms If nodes, prepares on WhileDo.
class IfLogger : public MiniPhase {
public:
  explicit IfLogger(std::vector<std::string> &Log)
      : MiniPhase("IfLogger", "test"), Log(Log) {
    declareTransforms({TreeKind::If});
    declarePrepares({TreeKind::WhileDo});
  }
  TreePtr transformIf(If *T, PhaseRunContext &Ctx) override {
    (void)Ctx;
    Log.push_back("transformIf");
    return TreePtr(T);
  }
  void prepareForWhileDo(WhileDo *T, PhaseRunContext &Ctx) override {
    (void)T;
    (void)Ctx;
    Log.push_back("prepWhile");
  }
  void leaveWhileDo(WhileDo *T, PhaseRunContext &Ctx) override {
    (void)T;
    (void)Ctx;
    Log.push_back("leaveWhile");
  }

private:
  std::vector<std::string> &Log;
};

/// Block{ Literal-only subtree ; While(lit, If(lit, lit, lit)) }.
TreePtr buildMixedTree(CompilerContext &Comp, TreePtr &PrunableOut) {
  TreeContext &Trees = Comp.trees();
  const Type *IntTy = Comp.types().intType();
  auto Lit = [&](int V) {
    return TreePtr(Trees.makeLiteral(SourceLoc(), Constant::makeInt(V), IntTy));
  };
  // A subtree with neither If nor WhileDo anywhere below it.
  TreeList Inner;
  Inner.push_back(Lit(1));
  PrunableOut = Trees.makeBlock(SourceLoc(), std::move(Inner), Lit(2));
  TreePtr Cond = Lit(0);
  TreePtr Body =
      Trees.makeIf(SourceLoc(), Lit(1), Lit(2), Lit(3), IntTy);
  TreePtr Loop = Trees.makeWhileDo(SourceLoc(), std::move(Cond),
                                   std::move(Body), Comp.types().unitType());
  TreeList Stats;
  Stats.push_back(PrunableOut);
  return Trees.makeBlock(SourceLoc(), std::move(Stats), std::move(Loop));
}

TEST(FusedBlockPruning, HookSequenceUnchangedAndSubtreeReusedByPointer) {
  std::vector<std::string> LogOn, LogOff;
  for (bool Pruning : {true, false}) {
    CompilerContext Comp;
    Comp.options().SubtreePruning = Pruning;
    std::vector<std::string> &Log = Pruning ? LogOn : LogOff;
    IfLogger P(Log);
    FusedBlock Blk({&P});
    // The block has prepares, so pruning must use the union mask: the
    // literal-only subtree is prunable, the WhileDo/If subtree is not.
    EXPECT_TRUE(Blk.hasPrepares());
    EXPECT_EQ(Blk.fusedTransformMask(), 1u << unsigned(TreeKind::If));
    EXPECT_EQ(Blk.fusedPrepareMask(), 1u << unsigned(TreeKind::WhileDo));
    TreePtr Prunable;
    CompilationUnit Unit;
    Unit.Root = buildMixedTree(Comp, Prunable);
    Tree *PrunableBefore = Prunable.get();
    Blk.runOnUnit(Unit, Comp);
    if (Pruning) {
      EXPECT_GT(Blk.subtreesPruned(), 0u);
      // The pruned subtree is the same node, not a rebuilt copy.
      EXPECT_EQ(cast<Block>(Unit.Root.get())->stat(0), PrunableBefore);
    } else {
      EXPECT_EQ(Blk.subtreesPruned(), 0u);
    }
  }
  EXPECT_EQ(LogOn, LogOff);
}

/// Prepare-only gate: a subtree containing WhileDo (prepare-interesting)
/// but no If (transform-interesting) must still fire its prepare/leave
/// hooks in the usual order, yet be returned by pointer — the engine
/// walks it hook-only and counts it in prepareOnlyWalks.
TEST(FusedBlockPruning, PrepareOnlySubtreeWalkedForHooksButNotRebuilt) {
  std::vector<std::string> LogOn, LogOff;
  for (bool Pruning : {true, false}) {
    CompilerContext Comp;
    Comp.options().SubtreePruning = Pruning;
    TreeContext &Trees = Comp.trees();
    const Type *IntTy = Comp.types().intType();
    auto Lit = [&](int V) {
      return TreePtr(
          Trees.makeLiteral(SourceLoc(), Constant::makeInt(V), IntTy));
    };
    // While(lit, While(lit, lit)): prepare kinds below, zero transform
    // kinds — the whole subtree qualifies for the prepare-only walk.
    TreePtr InnerLoop = Trees.makeWhileDo(SourceLoc(), Lit(1), Lit(2),
                                          Comp.types().unitType());
    TreePtr OuterLoop = Trees.makeWhileDo(SourceLoc(), Lit(0),
                                          std::move(InnerLoop),
                                          Comp.types().unitType());
    Tree *LoopBefore = OuterLoop.get();
    TreeList Stats;
    Stats.push_back(std::move(OuterLoop));
    CompilationUnit Unit;
    Unit.Root = Trees.makeBlock(SourceLoc(), std::move(Stats), Lit(3));

    std::vector<std::string> &Log = Pruning ? LogOn : LogOff;
    IfLogger P(Log);
    FusedBlock Blk({&P});
    Blk.runOnUnit(Unit, Comp);

    if (Pruning) {
      EXPECT_GT(Blk.prepareOnlyWalks(), 0u);
      // The subtree came back by pointer, not as a rebuilt copy.
      EXPECT_EQ(cast<Block>(Unit.Root.get())->stat(0), LoopBefore);
    } else {
      EXPECT_EQ(Blk.prepareOnlyWalks(), 0u);
    }
  }
  // Both nested loops prepared/left, in identical (nesting) order.
  std::vector<std::string> Expected = {"prepWhile", "prepWhile", "leaveWhile",
                                       "leaveWhile"};
  EXPECT_EQ(LogOn, Expected);
  EXPECT_EQ(LogOn, LogOff);
}

TEST(FusedBlockPruning, KindsBelowSummarizesWholeSubtree) {
  CompilerContext Comp;
  TreePtr Prunable;
  TreePtr Root = buildMixedTree(Comp, Prunable);
  auto Bit = [](TreeKind K) { return 1u << static_cast<unsigned>(K); };
  EXPECT_EQ(Prunable->kindsBelow(),
            Bit(TreeKind::Block) | Bit(TreeKind::Literal));
  EXPECT_EQ(Root->kindsBelow(), Bit(TreeKind::Block) | Bit(TreeKind::Literal) |
                                    Bit(TreeKind::WhileDo) | Bit(TreeKind::If));

  // Rebuilding with new children recomputes the summary.
  TreeList NewKids;
  Symbol *Label = Comp.syms().makeTerm(Comp.syms().freshName("L"),
                                       /*Owner=*/nullptr, /*Flags=*/0);
  NewKids.push_back(
      Comp.trees().makeGoto(SourceLoc(), Label, Comp.types().nothingType()));
  NewKids.push_back(Root->kids()[1]);
  TreePtr Rebuilt =
      Comp.trees().withNewChildren(Root.get(), std::move(NewKids));
  EXPECT_NE(Rebuilt.get(), Root.get());
  EXPECT_TRUE((Rebuilt->kindsBelow() & Bit(TreeKind::Goto)) != 0);
}

} // namespace
