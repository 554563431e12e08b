//===----------------------------------------------------------------------===//
// Per-phase behaviour tests: each miniphase's characteristic rewrite is
// checked on focused inputs by compiling a small program up to (and
// including) the phase's group and inspecting the lowered tree.
//===----------------------------------------------------------------------===//

#include "ast/TreePrinter.h"
#include "ast/TreeUtils.h"
#include "core/Pipeline.h"
#include "driver/Driver.h"
#include "frontend/Frontend.h"
#include "transforms/StandardPlan.h"

#include <gtest/gtest.h>

#include <set>

using namespace mpc;

namespace {

/// Compiles `Source` and runs groups until (including) the group holding
/// phase `UpTo`; returns the unit.
CompilationUnit lowerThrough(CompilerContext &Comp, const char *Source,
                             const std::string &UpTo) {
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", Source});
  std::vector<CompilationUnit> Units =
      runFrontEnd(Comp, std::move(Sources));
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

TEST(FirstTransform, MaterializesEmptyApplications) {
  // The paper's Listing 1 normalization: `def f = 1` used as `f`.
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f: Int = 1
  def g(): Int = f + 1
}
)",
                                   "TailRec");
  // Every method-typed reference is now wrapped in an Apply; the DefDef
  // for f has an (empty) parameter list.
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  for (Tree *D : Defs)
    EXPECT_FALSE(cast<DefDef>(D)->paramListSizes().empty());
}

TEST(Uncurry, FlattensParameterLists) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def add(a: Int)(b: Int): Int = a + b
  def use(): Int = add(1)(2)
}
)",
                                   "TailRec");
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  for (Tree *D : Defs) {
    EXPECT_LE(cast<DefDef>(D)->paramListSizes().size(), 1u);
    // Signatures flattened too.
    const Type *Info = cast<DefDef>(D)->sym()->info();
    if (const auto *MT = dyn_cast<MethodType>(Info)) {
      EXPECT_FALSE(isa<MethodType>(MT->result()));
    }
  }
  // No nested method-typed Apply remains.
  forEachSubtree(U.Root.get(), [](Tree *T) {
    if (auto *A = dyn_cast<Apply>(T)) {
      if (auto *Inner = dyn_cast<Apply>(A->fun())) {
        EXPECT_FALSE(Inner->type() && isa<MethodType>(Inner->type()));
      }
    }
  });
}

TEST(ElimRepeated, PackagesVarargs) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def sum(xs: Int*): Int = xs.length
  def use(): Int = sum(1, 2, 3)
}
)",
                                   "TailRec");
  // Call site packages trailing args into one SeqLiteral.
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::SeqLiteral), 1u);
  Tree *Seq = findFirst(U.Root.get(), TreeKind::SeqLiteral);
  EXPECT_EQ(Seq->numKids(), 3u);
}

TEST(TailRec, RewritesSelfTailCallsToJumps) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def loop(n: Int, acc: Int): Int =
    if (n <= 0) acc else loop(n - 1, acc + n)
  def notTail(n: Int): Int =
    if (n <= 0) 0 else 1 + notTail(n - 1)
}
)",
                                   "TailRec");
  // `loop` got a Labeled/Goto; `notTail` must not.
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Labeled), 1u);
  EXPECT_GE(countKind(U.Root.get(), TreeKind::Goto), 1u);
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  for (Tree *D : Defs) {
    auto *DD = cast<DefDef>(D);
    if (DD->sym()->name().text() == "notTail") {
      EXPECT_EQ(countKind(DD, TreeKind::Goto), 0u);
    }
  }
}

TEST(LiftTry, LiftsOnlyExpressionPositionTries) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def statementPos(x: Int): Int =
    try x catch { case t: Throwable => 0 }
  def expressionPos(x: Int): Int =
    1 + (try x catch { case t: Throwable => 0 })
}
)",
                                   "TailRec");
  // Exactly one lifted method was synthesized (for the expression one).
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  int Lifted = 0;
  for (Tree *D : Defs)
    if (cast<DefDef>(D)->sym()->name().text().find("liftedTree") !=
        std::string_view::npos)
      ++Lifted;
  EXPECT_EQ(Lifted, 1);
}

TEST(PatternMatcher, EliminatesAllMatchForms) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
case class P(a: Int, b: Int)
class C {
  def f(x: Any): Int = x match {
    case 1 | 2 => 100
    case P(a, b) if a < b => a
    case p @ P(a, _) => a
    case s: String => s.length
    case _ => 0
  }
}
)",
                                   "ExplicitOuter");
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Match), 0u);
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::UnApply), 0u);
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Alternative), 0u);
  // Lowered to conditionals with type tests.
  EXPECT_GE(countKind(U.Root.get(), TreeKind::If), 4u);
}

TEST(Getters, ValsBecomeAccessors) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  val x: Int = 5
  private val hidden: Int = 6
  var mutable: Int = 7
  def use(): Int = x + hidden + mutable
}
)",
                                   "ExplicitOuter");
  std::vector<Tree *> Defs;
  collectKind(U.Root.get(), TreeKind::DefDef, Defs);
  bool XIsGetter = false;
  for (Tree *D : Defs)
    if (cast<DefDef>(D)->sym()->name().text() == "x")
      XIsGetter = cast<DefDef>(D)->sym()->is(SymFlag::Accessor);
  EXPECT_TRUE(XIsGetter);
  // Private vals and vars stay fields.
  std::vector<Tree *> Vals;
  collectKind(U.Root.get(), TreeKind::ValDef, Vals);
  bool HiddenIsField = false, MutableIsField = false;
  for (Tree *V : Vals) {
    if (cast<ValDef>(V)->sym()->name().text() == "hidden")
      HiddenIsField = cast<ValDef>(V)->sym()->is(SymFlag::Field);
    if (cast<ValDef>(V)->sym()->name().text() == "mutable")
      MutableIsField = cast<ValDef>(V)->sym()->is(SymFlag::Field);
  }
  EXPECT_TRUE(HiddenIsField);
  EXPECT_TRUE(MutableIsField);
}

TEST(ErasureTest, NodeTypesAreErased) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
case class Box[T](value: T)
class C {
  def f(b: Box[Int], g: (Int) => Int): Int = g(b.value)
  def pick(c: Boolean, x: Box[Int], y: Box[Int]): Box[Int] =
    if (c) x else y
}
)",
                                   "Erasure");
  ErasurePhase Checker;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(Checker.checkPostCondition(T, Comp))
        << "unerased type survives: "
        << (T->type() ? T->type()->show() : "<none>");
  });
}

/// A unit whose types are all erased already by the end of block B, and
/// which holds every kind Erasure rebuilds: Apply, Select, New and
/// SeqLiteral.
const char *AlreadyErased = R"(
class C {
  def f(x: Int): Int = x + 1
  def sum(xs: Int*): Int = xs.length
  def g(): Int = f(2) + sum(1, 2, 3) + new C().f(3)
}
)";

bool isRebuiltKind(const Tree *T) {
  return isa<Apply>(T) || isa<Select>(T) || isa<New>(T) ||
         isa<SeqLiteral>(T);
}

TEST(ErasureTest, NothingToEraseReturnsTheSameRoot) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, AlreadyErased, "ExplicitOuter");
  ASSERT_EQ(countKind(U.Root.get(), TreeKind::SeqLiteral), 1u);
  ASSERT_EQ(countKind(U.Root.get(), TreeKind::New), 1u);
  Tree *Before = U.Root.get();
  uint64_t Created = Comp.trees().nodesCreated();
  ErasurePhase Erasure;
  Erasure.runOnUnit(U, Comp);
  EXPECT_EQ(U.Root.get(), Before);
  EXPECT_EQ(Comp.trees().nodesCreated(), Created);
}

TEST(ErasureTest, AlwaysCopyRebuildsApplySelectNewAndSeqLiteral) {
  // The Legacy baseline (Fig. 9) must keep allocating these four kinds
  // afresh even when erasure leaves them unchanged.
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, AlreadyErased, "ExplicitOuter");
  // Holding the input keeps its addresses from being reused below.
  TreePtr Input = U.Root;
  std::set<const Tree *> Old;
  forEachSubtree(Input.get(), [&](Tree *T) { Old.insert(T); });
  Comp.options().AlwaysCopy = true;
  ErasurePhase Erasure;
  Erasure.runOnUnit(U, Comp);
  std::set<TreeKind> Kinds;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    if (!isRebuiltKind(T))
      return;
    Kinds.insert(T->kind());
    EXPECT_EQ(Old.count(T), 0u) << treeKindName(T->kind()) << " reused";
  });
  EXPECT_EQ(Kinds.size(), 4u);
}

TEST(LazyValsTest, ExpandsToFlagAndStorage) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  lazy val x: Int = 42
  def use(): Int = x
}
)",
                                   "ElimStaticThis");
  // The class gained the storage + flag fields.
  std::vector<Tree *> Vals;
  collectKind(U.Root.get(), TreeKind::ValDef, Vals);
  bool SawStorage = false, SawFlag = false;
  for (Tree *V : Vals) {
    auto Name = cast<ValDef>(V)->sym()->name().text();
    if (Name.find("$lzy") != std::string_view::npos)
      SawStorage = true;
    if (Name.find("$flag") != std::string_view::npos)
      SawFlag = true;
  }
  EXPECT_TRUE(SawStorage);
  EXPECT_TRUE(SawFlag);
  // No lazy accessor remains in classes.
  LazyValsPhase LV;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(LV.checkPostCondition(T, Comp));
  });
}

TEST(MixinTest, CopiesTraitMembersIntoClasses) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
trait T {
  def greet(): Int = 42
}
class C extends T
)",
                                   "ElimStaticThis");
  std::vector<Tree *> Classes;
  collectKind(U.Root.get(), TreeKind::ClassDef, Classes);
  bool CHasGreet = false;
  for (Tree *Cls : Classes) {
    auto *CD = cast<ClassDef>(Cls);
    if (CD->sym()->name().text() != "C")
      continue;
    for (const TreePtr &M : CD->kids())
      if (auto *DD = dyn_cast_or_null<DefDef>(M.get()))
        if (DD->sym()->name().text() == "greet" && DD->rhs())
          CHasGreet = true;
  }
  EXPECT_TRUE(CHasGreet);
}

TEST(ConstructorsTest, FieldInitializersMoveToInit) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C(a: Int) {
  val b: Int = a * 2
}
)",
                                   "ElimStaticThis");
  ConstructorsPhase CP;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(CP.checkPostCondition(T, Comp))
        << "field with initializer survived Constructors";
  });
}

TEST(FunctionValuesTest, ClosuresBecomeClasses) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def make(n: Int): (Int) => Int = (x: Int) => x + n
}
)",
                                   "ElimStaticThis");
  EXPECT_EQ(countKind(U.Root.get(), TreeKind::Closure), 0u);
  // An anonfun class with an apply method appeared at top level.
  std::vector<Tree *> Classes;
  collectKind(U.Root.get(), TreeKind::ClassDef, Classes);
  bool SawAnon = false;
  for (Tree *Cls : Classes)
    if (cast<ClassDef>(Cls)->sym()->name().text().find("anonfun") !=
        std::string_view::npos)
      SawAnon = true;
  EXPECT_TRUE(SawAnon);
}

TEST(LambdaLiftTest, NoLocalMethodsRemainInBlocks) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class C {
  def f(n: Int): Int = {
    val base = n + 1
    def helper(k: Int): Int = base + k
    helper(3)
  }
}
)",
                                   "RestoreScopes");
  LambdaLiftPhase LL;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(LL.checkPostCondition(T, Comp));
  });
  // No nested classes remain either (Flatten ran).
  FlattenPhase FP;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(FP.checkPostCondition(T, Comp));
  });
}

/// a2 calls b2 and then c2, b2 calls d, and d, b2 and c2 each capture one
/// variable: a2's lifted parameters depend on the order the free-variable
/// fixpoint visits the local methods.
const char *LiftOrder = R"(
object Main {
  def run(n: Int): Int = {
    val a = n + 1
    val b = n + 2
    val c = n + 3
    def d(): Int = a
    def b2(): Int = b + d()
    def c2(): Int = c
    def a2(): Int = b2() + c2()
    a2()
  }
  def main(args: Array[String]): Unit = println(run(1))
}
)";

struct LiftOutcome {
  std::vector<std::string> A2Params;
  std::string Dump;
};

LiftOutcome compileLiftOrder(CompilerContext &Comp, PipelineKind Kind) {
  LiftOutcome R;
  CompileOutput Out = compileProgram(Comp, {{"t.scala", LiftOrder}}, Kind);
  EXPECT_FALSE(Comp.diags().hasErrors());
  PrintOptions PO;
  PO.ShowTypes = true;
  for (const CompilationUnit &U : Out.Units) {
    R.Dump += treeToString(U.Root.get(), PO);
    std::vector<Tree *> Defs;
    collectKind(U.Root.get(), TreeKind::DefDef, Defs);
    for (Tree *D : Defs) {
      auto *DD = cast<DefDef>(D);
      if (DD->sym()->name().text() != "a2")
        continue;
      for (unsigned I = 0; I < DD->numParamsTotal(); ++I)
        R.A2Params.emplace_back(
            cast<ValDef>(DD->paramAt(I))->sym()->name().text());
    }
  }
  return R;
}

TEST(LambdaLiftTest, FreeVariableOrderFollowsTheSource) {
  CompilerContext Cold;
  LiftOutcome Fused = compileLiftOrder(Cold, PipelineKind::StandardFused);
  EXPECT_EQ(Fused.A2Params, (std::vector<std::string>{"b", "a", "c"}));

  CompilerContext Other;
  LiftOutcome Unfused =
      compileLiftOrder(Other, PipelineKind::StandardUnfused);
  EXPECT_EQ(Unfused.A2Params, Fused.A2Params);
  EXPECT_EQ(Unfused.Dump, Fused.Dump);

  // A recycled context allocates its symbols at other addresses, in
  // another order; the output must not notice.
  CompilerContext Warm;
  for (int Round = 0; Round < 3; ++Round) {
    compileLiftOrder(Warm, PipelineKind::StandardFused);
    Warm.reset();
  }
  LiftOutcome Recycled = compileLiftOrder(Warm, PipelineKind::StandardFused);
  EXPECT_EQ(Recycled.A2Params, Fused.A2Params);
  EXPECT_EQ(Recycled.Dump, Fused.Dump);
}

TEST(SplitterTest, NoUnionSelectionsAfterGroupB) {
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
class A { def m(): Int = 1 }
class B { def m(): Int = 2 }
class C {
  def pick(f: Boolean, a: A, b: B): A | B = if (f) a else b
  def use(f: Boolean, a: A, b: B): Int = pick(f, a, b).m()
}
)",
                                   "ExplicitOuter");
  SplitterPhase SP;
  forEachSubtree(U.Root.get(), [&](Tree *T) {
    EXPECT_TRUE(SP.checkPostCondition(T, Comp));
  });
}

TEST(WholePlan, AllPostconditionsHoldOnCleanPrograms) {
  // The full §6.3 discipline: after the complete pipeline, every phase's
  // postcondition holds on every subtree of a representative program.
  CompilerContext Comp;
  CompilationUnit U = lowerThrough(Comp, R"(
trait Greeter { def hello(): Int = 1 }
case class Pair(a: Int, b: Int)
object Main extends Greeter {
  def swap(p: Pair): Pair = p match { case Pair(a, b) => Pair(b, a) }
  def main(args: Array[String]): Unit = println(swap(Pair(1, 2)))
}
)",
                                   "LabelDefs");
  std::vector<std::string> Errors;
  PhasePlan Plan = makeStandardPlan(true, Errors);
  for (Phase *P : Plan.phases()) {
    forEachSubtree(U.Root.get(), [&](Tree *T) {
      EXPECT_TRUE(P->checkPostCondition(T, Comp))
          << "postcondition of " << P->name() << " violated";
    });
  }
}

} // namespace
