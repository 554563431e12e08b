//===----------------------------------------------------------------------===//
// TreeChecker failure-injection tests (§6.3 and Listing 9): deliberately
// buggy phases must be caught by the between-groups checker, and the
// failure must be attributed so that "if a postcondition of phase X fails
// after executing phase Y, we know immediately that phase Y breaks the
// invariant that phase X is intended to establish".
//===----------------------------------------------------------------------===//

#include "ast/TreeUtils.h"
#include "core/PhasePlan.h"
#include "core/Pipeline.h"
#include "frontend/TypeAssigner.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

TreePtr intLit(CompilerContext &Comp, int V) {
  return Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(V),
                                  Comp.types().intType());
}

CompilationUnit unitWithLiterals(CompilerContext &Comp) {
  TreeList Stats;
  Stats.push_back(intLit(Comp, 1));
  CompilationUnit Unit;
  Unit.Root = Comp.trees().makeBlock(SourceLoc(), std::move(Stats),
                                     intLit(Comp, 2));
  return Unit;
}

//===----------------------------------------------------------------------===//
// Global invariants
//===----------------------------------------------------------------------===//

TEST(GlobalInvariants, CleanTreeHasNoFailures) {
  CompilerContext Comp;
  CompilationUnit Unit = unitWithLiterals(Comp);
  TreeChecker Checker;
  std::vector<CheckFailure> Failures;
  Checker.checkGlobalInvariants(Unit.Root.get(), Comp, Failures);
  EXPECT_TRUE(Failures.empty());
}

TEST(GlobalInvariants, UntypedExpressionIsCaught) {
  CompilerContext Comp;
  TreeList Stats;
  Stats.push_back(Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(1),
                                           /*Ty=*/nullptr));
  CompilationUnit Unit;
  Unit.Root = Comp.trees().makeBlock(SourceLoc(), std::move(Stats),
                                     intLit(Comp, 2));
  TreeChecker Checker;
  std::vector<CheckFailure> Failures;
  Checker.checkGlobalInvariants(Unit.Root.get(), Comp, Failures);
  ASSERT_EQ(Failures.size(), 1u);
  EXPECT_NE(Failures[0].Message.find("untyped node"), std::string::npos);
  EXPECT_TRUE(Failures[0].PhaseName.empty()); // global, not phase-specific
}

TEST(GlobalInvariants, DoubleDefinitionIsCaught) {
  CompilerContext Comp;
  Symbol *X = Comp.syms().makeTerm(Comp.names().intern("x"), nullptr,
                                   SymFlag::Local, Comp.types().intType());
  TreeList Stats;
  Stats.push_back(Comp.trees().makeValDef(SourceLoc(), X, intLit(Comp, 1)));
  Stats.push_back(Comp.trees().makeValDef(SourceLoc(), X, intLit(Comp, 2)));
  CompilationUnit Unit;
  Unit.Root = Comp.trees().makeBlock(SourceLoc(), std::move(Stats),
                                     intLit(Comp, 3));
  TreeChecker Checker;
  std::vector<CheckFailure> Failures;
  Checker.checkGlobalInvariants(Unit.Root.get(), Comp, Failures);
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("double definition of x"),
            std::string::npos);
}

TEST(GlobalInvariants, RetypeMismatchIsCaught) {
  // An Int literal recorded with type String: the bottom-up re-derivation
  // (Listing 9's "reTyped.hasSameTypes") must flag it.
  CompilerContext Comp;
  TreeList Stats;
  Stats.push_back(Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(5),
                                           Comp.syms().stringType()));
  CompilationUnit Unit;
  Unit.Root = Comp.trees().makeBlock(SourceLoc(), std::move(Stats),
                                     intLit(Comp, 1));
  TreeChecker Checker(makeRetypeChecker());
  std::vector<CheckFailure> Failures;
  Checker.checkGlobalInvariants(Unit.Root.get(), Comp, Failures);
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("type mismatch"), std::string::npos);
}

TEST(GlobalInvariants, WideningRecordedTypeIsAllowed) {
  // Phases may legally widen a node's type (e.g. erasure): an Int literal
  // recorded as Any must NOT be flagged.
  CompilerContext Comp;
  TreeList Stats;
  Stats.push_back(Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(5),
                                           Comp.types().anyType()));
  CompilationUnit Unit;
  Unit.Root = Comp.trees().makeBlock(SourceLoc(), std::move(Stats),
                                     intLit(Comp, 1));
  TreeChecker Checker(makeRetypeChecker());
  std::vector<CheckFailure> Failures;
  Checker.checkGlobalInvariants(Unit.Root.get(), Comp, Failures);
  EXPECT_TRUE(Failures.empty());
}

//===----------------------------------------------------------------------===//
// Postcondition attribution across phases
//===----------------------------------------------------------------------===//

/// Establishes (and requires forever after) "no If nodes in the tree".
class ElimIfs : public MiniPhase {
public:
  ElimIfs() : MiniPhase("ElimIfs", "test: eliminates If nodes") {
    declareTransforms({TreeKind::If});
  }
  TreePtr transformIf(If *T, PhaseRunContext &) override {
    return TreePtr(T->kid(1)); // keep the then-branch
  }
  bool checkPostCondition(const Tree *T, CompilerContext &) const override {
    return !isa<If>(T);
  }
};

/// Buggy phase: wraps literals back into If nodes, violating ElimIfs'
/// postcondition.
class ReintroduceIfs : public MiniPhase {
public:
  ReintroduceIfs()
      : MiniPhase("ReintroduceIfs", "test: buggy, reintroduces Ifs") {
    declareTransforms({TreeKind::Literal});
  }
  TreePtr transformLiteral(Literal *T, PhaseRunContext &Ctx) override {
    TreePtr Cond = Ctx.trees().makeLiteral(
        T->loc(), Constant::makeBool(true), Ctx.types().booleanType());
    TreePtr Other = Ctx.trees().makeLiteral(
        T->loc(), Constant::makeInt(0), Ctx.types().intType());
    return Ctx.trees().makeIf(T->loc(), std::move(Cond), TreePtr(T),
                              std::move(Other), T->type());
  }
};

/// Well-behaved phase that does nothing.
class Innocent : public MiniPhase {
public:
  Innocent() : MiniPhase("Innocent", "test: no-op") {}
};

PhasePlan makePlan(std::vector<std::unique_ptr<Phase>> Phases, bool Fuse) {
  std::vector<std::string> Errors;
  PhasePlan Plan = PhasePlan::build(std::move(Phases), Fuse, Errors);
  EXPECT_TRUE(Errors.empty());
  return Plan;
}

TEST(PostconditionChecks, ViolationIsAttributedToBreakingPhase) {
  CompilerContext Comp;
  Comp.options().CheckTrees = true;

  std::vector<std::unique_ptr<Phase>> Phases;
  Phases.push_back(std::make_unique<ElimIfs>());
  Phases.push_back(std::make_unique<ReintroduceIfs>());
  // Unfused: one group per phase, so the checker runs between the two.
  PhasePlan Plan = makePlan(std::move(Phases), /*Fuse=*/false);

  std::vector<CompilationUnit> Units;
  Units.push_back(unitWithLiterals(Comp));

  TreeChecker Checker;
  TransformPipeline Pipe(Plan);
  PipelineResult R = Pipe.run(Units, Comp, &Checker);

  ASSERT_FALSE(R.CheckFailures.empty());
  // The FAILING postcondition belongs to ElimIfs...
  EXPECT_EQ(R.CheckFailures.front().PhaseName, "ElimIfs");
  // ...and the message names ReintroduceIfs as the phase that just ran.
  EXPECT_NE(R.CheckFailures.front().Message.find(
                "after running ReintroduceIfs"),
            std::string::npos)
      << R.CheckFailures.front().Message;
}

TEST(PostconditionChecks, CleanPhasesProduceNoFailures) {
  CompilerContext Comp;
  Comp.options().CheckTrees = true;

  std::vector<std::unique_ptr<Phase>> Phases;
  Phases.push_back(std::make_unique<ElimIfs>());
  Phases.push_back(std::make_unique<Innocent>());
  PhasePlan Plan = makePlan(std::move(Phases), /*Fuse=*/false);

  std::vector<CompilationUnit> Units;
  Units.push_back(unitWithLiterals(Comp));

  TreeChecker Checker;
  TransformPipeline Pipe(Plan);
  PipelineResult R = Pipe.run(Units, Comp, &Checker);
  EXPECT_TRUE(R.CheckFailures.empty());
}

TEST(PostconditionChecks, ViolationInsideFusedGroupIsStillCaught) {
  // With fusion ON the two phases share one traversal; the checker runs
  // after the group and still catches the broken invariant.
  CompilerContext Comp;
  Comp.options().CheckTrees = true;

  std::vector<std::unique_ptr<Phase>> Phases;
  Phases.push_back(std::make_unique<ElimIfs>());
  Phases.push_back(std::make_unique<ReintroduceIfs>());
  PhasePlan Plan = makePlan(std::move(Phases), /*Fuse=*/true);
  ASSERT_EQ(Plan.groups().size(), 1u);

  std::vector<CompilationUnit> Units;
  Units.push_back(unitWithLiterals(Comp));

  TreeChecker Checker;
  TransformPipeline Pipe(Plan);
  PipelineResult R = Pipe.run(Units, Comp, &Checker);
  ASSERT_FALSE(R.CheckFailures.empty());
  EXPECT_EQ(R.CheckFailures.front().PhaseName, "ElimIfs");
}

TEST(PostconditionChecks, DisabledCheckingReportsNothing) {
  CompilerContext Comp;
  Comp.options().CheckTrees = false;

  std::vector<std::unique_ptr<Phase>> Phases;
  Phases.push_back(std::make_unique<ElimIfs>());
  Phases.push_back(std::make_unique<ReintroduceIfs>());
  PhasePlan Plan = makePlan(std::move(Phases), /*Fuse=*/false);

  std::vector<CompilationUnit> Units;
  Units.push_back(unitWithLiterals(Comp));

  TransformPipeline Pipe(Plan);
  PipelineResult R = Pipe.run(Units, Comp, nullptr);
  EXPECT_TRUE(R.CheckFailures.empty());
}

TEST(PostconditionChecks, PhasesUpToAccumulatesAcrossGroups) {
  // The checker after group N runs postconditions of ALL phases of groups
  // 0..N inclusive — not just the last group's.
  std::vector<std::unique_ptr<Phase>> Phases;
  Phases.push_back(std::make_unique<ElimIfs>());
  Phases.push_back(std::make_unique<Innocent>());
  PhasePlan Plan = makePlan(std::move(Phases), /*Fuse=*/false);
  ASSERT_EQ(Plan.groups().size(), 2u);
  std::vector<Phase *> AfterFirst = Plan.phasesUpTo(0);
  ASSERT_EQ(AfterFirst.size(), 1u);
  EXPECT_EQ(AfterFirst[0]->name(), "ElimIfs");
  std::vector<Phase *> AfterSecond = Plan.phasesUpTo(1);
  ASSERT_EQ(AfterSecond.size(), 2u);
  EXPECT_EQ(AfterSecond[1]->name(), "Innocent");
}

} // namespace
