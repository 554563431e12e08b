//===----------------------------------------------------------------------===//
// Per-phase behaviour tests, part 2: the phases not covered by
// PhaseBehaviorTest.cpp — normalization details (FirstTransform,
// RefChecks), by-name elimination, intercepted equality, outer pointers,
// captured-var boxing, non-local returns, memoized getters, static-this
// elimination, entry-point collection, block flattening and label
// verification.
//===----------------------------------------------------------------------===//

#include "ast/TreeUtils.h"
#include "core/Pipeline.h"
#include "frontend/Frontend.h"
#include "transforms/StandardPlan.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

/// Compiles `Source` and runs groups until (including) the group holding
/// phase `UpTo`; returns the unit (same helper as PhaseBehaviorTest).
CompilationUnit lowerThrough(CompilerContext &Comp, const char *Source,
                             const std::string &UpTo) {
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", Source});
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  EXPECT_FALSE(Comp.diags().hasErrors());

  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(true, Errors);
  EXPECT_TRUE(Errors.empty());
  for (const PhaseGroup &G : Plan.groups()) {
    if (G.isFused()) {
      for (CompilationUnit &U : Units)
        G.Block->runOnUnit(U, Comp);
    } else {
      for (Phase *P : G.Members)
        for (CompilationUnit &U : Units)
          P->runOnUnit(U, Comp);
    }
    for (Phase *P : G.Members)
      if (P->name() == UpTo)
        return std::move(Units[0]);
  }
  ADD_FAILURE() << "phase " << UpTo << " not found in plan";
  return std::move(Units[0]);
}

DefDef *findMethod(Tree *Root, std::string_view Name) {
  std::vector<Tree *> Defs;
  collectKind(Root, TreeKind::DefDef, Defs);
  for (Tree *D : Defs)
    if (cast<DefDef>(D)->sym()->name().text() == Name)
      return cast<DefDef>(D);
  return nullptr;
}

//===----------------------------------------------------------------------===//
// FirstTransform
//===----------------------------------------------------------------------===//

TEST(FirstTransform2, FoldsConstantIfConditions) {
  // §2.1: refchecks "eliminates conditional branches when their condition
  // is statically known" — done here by FirstTransform.
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def alwaysThen(): Int = if (true) 1 else 2
  def alwaysElse(): Int = if (false) 1 else 2
  def dynamic(b: Boolean): Int = if (b) 1 else 2
}
)",
                                   "TailRec");
  DefDef *Then = findMethod(U.Root.get(), "alwaysThen");
  DefDef *Else = findMethod(U.Root.get(), "alwaysElse");
  DefDef *Dyn = findMethod(U.Root.get(), "dynamic");
  ASSERT_TRUE(Then && Else && Dyn);
  EXPECT_EQ(countKind(Then, TreeKind::If), 0u);
  EXPECT_EQ(countKind(Else, TreeKind::If), 0u);
  EXPECT_EQ(countKind(Dyn, TreeKind::If), 1u);
  EXPECT_EQ(cast<Literal>(Then->rhs())->value().intValue(), 1);
  EXPECT_EQ(cast<Literal>(Else->rhs())->value().intValue(), 2);
}

TEST(FirstTransform2, PostconditionHoldsAfterWholePipeline) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C { def f(): Int = if (1 < 2) 1 else 2 }
)",
                                   "LabelDefs");
  FirstTransformPhase FT;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(FT.checkPostCondition(T, Comp));
  });
}

//===----------------------------------------------------------------------===//
// InterceptedMethods
//===----------------------------------------------------------------------===//

TEST(InterceptedMethods2, UniversalEqualityGoesThroughRuntime) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class A
class C {
  def f(a: A, b: A): Boolean = a == b
}
)",
                                   "ExplicitOuter");
  // The == on references is now a call to Runtime.equals.
  bool SawRuntimeEquals = false;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    if (auto *Sel = dyn_cast<Select>(T))
      if (Sel->sym() == Comp.syms().runtimeEqualsMethod())
        SawRuntimeEquals = true;
  });
  EXPECT_TRUE(SawRuntimeEquals);
}

TEST(InterceptedMethods2, PrimitiveEqualityIsLeftAlone) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C { def f(a: Int, b: Int): Boolean = a == b }
)",
                                   "ExplicitOuter");
  bool SawRuntimeEquals = false;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    if (auto *Sel = dyn_cast<Select>(T))
      if (Sel->sym() == Comp.syms().runtimeEqualsMethod())
        SawRuntimeEquals = true;
  });
  EXPECT_FALSE(SawRuntimeEquals);
}

//===----------------------------------------------------------------------===//
// ElimByName
//===----------------------------------------------------------------------===//

TEST(ElimByName2, ParametersBecomeThunks) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def unless(c: Boolean, body: => Int): Int = if (c) 0 else body
  def use(): Int = unless(false, 1 + 2)
}
)",
                                   "ExplicitOuter");
  // No ExprType (by-name) parameter survives the phase's group.
  ElimByNamePhase EBN;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(EBN.checkPostCondition(T, Comp));
  });
  // The argument side became a closure (thunk).
  EXPECT_GE(countKind(U.Root.get(), TreeKind::Closure), 1u);
}

//===----------------------------------------------------------------------===//
// ExplicitOuter
//===----------------------------------------------------------------------===//

TEST(ExplicitOuter2, InnerClassGainsOuterField) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class Outer(x: Int) {
  class Inner {
    def get(): Int = x
  }
  def mk(): Inner = new Inner
}
)",
                                   "ExplicitOuter");
  std::vector<Tree *> Classes;
  collectKind(U.Root.get(), TreeKind::ClassDef, Classes);
  bool InnerHasOuter = false;
  for (Tree *Cls : Classes) {
    auto *CD = cast<ClassDef>(Cls);
    if (CD->sym()->name().text() != "Inner")
      continue;
    for (Symbol *M : CD->sym()->members())
      if (M->name().text().find("$outer") != std::string_view::npos)
        InnerHasOuter = true;
  }
  EXPECT_TRUE(InnerHasOuter);
}

TEST(ExplicitOuter2, TopLevelClassNeedsNoOuter) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class Plain { def f(): Int = 1 }
)",
                                   "ExplicitOuter");
  std::vector<Tree *> Classes;
  collectKind(U.Root.get(), TreeKind::ClassDef, Classes);
  for (Tree *Cls : Classes) {
    auto *CD = cast<ClassDef>(Cls);
    EXPECT_FALSE(ExplicitOuterPhase::needsOuter(CD->sym()))
        << CD->sym()->name().text();
  }
}

//===----------------------------------------------------------------------===//
// CapturedVars
//===----------------------------------------------------------------------===//

TEST(CapturedVars2, CapturedMutableVarIsBoxed) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f(): Int = {
    var counter = 0
    val inc = () => { counter = counter + 1; counter }
    inc()
  }
}
)",
                                   "ElimStaticThis");
  // The var became a Ref cell: a `new IntRef(...)` appears, and no
  // Assign to the raw var symbol remains.
  bool SawRefAlloc = false;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    if (auto *N = dyn_cast<New>(T))
      if (const auto *CT = dyn_cast<ClassType>(N->classTy()))
        if (CT->cls()->name().text().find("Ref") != std::string_view::npos)
          SawRefAlloc = true;
  });
  EXPECT_TRUE(SawRefAlloc);
}

TEST(CapturedVars2, UncapturedVarStaysUnboxed) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f(): Int = {
    var local = 0
    local = local + 1
    local
  }
}
)",
                                   "ElimStaticThis");
  bool SawRefAlloc = false;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    if (auto *N = dyn_cast<New>(T))
      if (const auto *CT = dyn_cast<ClassType>(N->classTy()))
        if (CT->cls()->name().text().find("Ref") != std::string_view::npos)
          SawRefAlloc = true;
  });
  EXPECT_FALSE(SawRefAlloc);
}

//===----------------------------------------------------------------------===//
// NonLocalReturns
//===----------------------------------------------------------------------===//

TEST(NonLocalReturns2, ReturnInClosureBecomesThrowAndCatch) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def apply1(f: (Int) => Int): Int = f(1)
  def find(): Int = {
    apply1((x: Int) => return 42)
  }
}
)",
                                   "ElimStaticThis");
  DefDef *Find = findMethod(U.Root.get(), "find");
  ASSERT_NE(Find, nullptr);
  // The method body gained a Try (the catch of the control exception) and
  // the closure's return became a Throw.
  EXPECT_GE(countKind(Find, TreeKind::Try), 1u);
  EXPECT_GE(countKind(U.Root.get(), TreeKind::Throw), 1u);
}

TEST(NonLocalReturns2, LocalReturnIsNotRewritten) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f(x: Int): Int = {
    if (x > 0) return x
    -x
  }
}
)",
                                   "ElimStaticThis");
  DefDef *F = findMethod(U.Root.get(), "f");
  ASSERT_NE(F, nullptr);
  EXPECT_EQ(countKind(F, TreeKind::Try), 0u);
}

//===----------------------------------------------------------------------===//
// Memoize
//===----------------------------------------------------------------------===//

TEST(Memoize2, GettersGetBackingFields) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  val stored: Int = 42
  def use(): Int = stored
}
)",
                                   "ElimStaticThis");
  // Getters turned `stored` into an accessor; Memoize reintroduced a
  // field for it. Both must now coexist in class C.
  std::vector<Tree *> Classes;
  collectKind(U.Root.get(), TreeKind::ClassDef, Classes);
  bool SawAccessor = false, SawField = false;
  for (Tree *Cls : Classes) {
    auto *CD = cast<ClassDef>(Cls);
    if (CD->sym()->name().text() != "C")
      continue;
    for (const TreePtr &M : CD->kids()) {
      if (auto *DD = dyn_cast_or_null<DefDef>(M.get()))
        if (DD->sym()->is(SymFlag::Accessor) &&
            DD->sym()->name().text() == "stored")
          SawAccessor = true;
      if (auto *VD = dyn_cast_or_null<ValDef>(M.get()))
        if (VD->sym()->name().text().find("stored") !=
            std::string_view::npos)
          SawField = true;
    }
  }
  EXPECT_TRUE(SawAccessor);
  EXPECT_TRUE(SawField);
}

//===----------------------------------------------------------------------===//
// ElimStaticThis
//===----------------------------------------------------------------------===//

TEST(ElimStaticThis2, ModuleThisBecomesGlobalReference) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
object Counter {
  var n: Int = 0
  def bump(): Int = { n = n + 1; n }
}
)",
                                   "ElimStaticThis");
  // No This node referring to a module class survives outside the
  // module's own constructor (inside <init> the instance is still being
  // built, so the global MODULE$ reference is not yet valid there).
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  for (Tree *D : Defs) {
    auto *DD = cast<DefDef>(D);
    if (DD->sym()->is(SymFlag::Constructor))
      continue;
    forEachSubtree(DD, [&](Tree *T) {
      if (auto *Th = dyn_cast<This>(T)) {
        EXPECT_FALSE(Th->cls()->is(SymFlag::ModuleClass))
            << "module-class `this` survived ElimStaticThis in "
            << DD->sym()->name().text();
      }
    });
  }
}

//===----------------------------------------------------------------------===//
// CollectEntryPoints
//===----------------------------------------------------------------------===//

TEST(CollectEntryPoints2, FindsMainMethods) {
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", R"(
object Main {
  def main(args: Array[String]): Unit = println(1)
}
object NotMain {
  def mainish(args: Array[String]): Unit = println(2)
  def main(): Unit = println(3)
}
)"});
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  ASSERT_FALSE(Comp.diags().hasErrors());
  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(true, Errors);
  TransformPipeline Pipe(Plan);
  Pipe.run(Units, Comp);
  auto *CEP = findEntryPoints(Plan);
  ASSERT_NE(CEP, nullptr);
  ASSERT_EQ(CEP->entryPoints().size(), 1u);
  EXPECT_EQ(CEP->entryPoints()[0]->owner()->name().text(), "Main$");
}

//===----------------------------------------------------------------------===//
// FlattenBlocks / LabelDefs
//===----------------------------------------------------------------------===//

TEST(FlattenBlocks2, NestedBlocksAreMerged) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f(): Int = {
    val a = { val b = 1; b + 1 }
    { a + 1 }
  }
}
)",
                                   "LabelDefs");
  // No Block remains whose direct result expression is itself a Block.
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    if (auto *B = dyn_cast<Block>(T)) {
      EXPECT_FALSE(isa<Block>(B->expr()))
          << "nested block survived FlattenBlocks";
    }
  });
}

TEST(LabelDefs2, GotosStayWithinEnclosingLabels) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def loop(n: Int, acc: Int): Int =
    if (n == 0) acc else loop(n - 1, acc + n)
}
)",
                                   "LabelDefs");
  // TailRec introduced a Labeled/Goto pair; LabelDefs' postcondition
  // verifies the goto targets an enclosing label. Re-check it manually
  // over the final tree.
  LabelDefsPhase LD;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(LD.checkPostCondition(T, Comp));
  });
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Labeled), 1u);
}

//===----------------------------------------------------------------------===//
// RefChecks
//===----------------------------------------------------------------------===//

TEST(RefChecks2, OverrideAgainstFinalIsRejected) {
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", R"(
class A { final def f(): Int = 1 }
class B extends A { override def f(): Int = 2 }
)"});
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  // The frontend types this; RefChecks (first transform group) reports.
  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(true, Errors);
  TransformPipeline Pipe(Plan);
  Pipe.run(Units, Comp);
  EXPECT_TRUE(Comp.diags().hasErrors());
}

//===----------------------------------------------------------------------===//
// LiftTry prepare/leave scoping
//===----------------------------------------------------------------------===//

TEST(LiftTry2, DepthIsBalancedAcrossUnit) {
  // After a whole unit, LiftTry's expression-depth state must be back to
  // zero — the leave hooks must mirror the prepares exactly.
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", R"(
class C {
  def f(a: Int): Int = g(1 + (try a catch { case t: Throwable => 0 }))
  def g(x: Int): Int = x * 2
}
)"});
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  ASSERT_FALSE(Comp.diags().hasErrors());
  LiftTryPhase LT;
  for (CompilationUnit &U : Units)
    LT.runOnUnit(U, Comp);
  EXPECT_EQ(LT.exprDepth(), 0);
}

} // namespace
