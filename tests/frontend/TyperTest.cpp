//===----------------------------------------------------------------------===//
// Typer tests: diagnostics on ill-typed programs, inference behaviour,
// and the types recorded on well-typed trees. The TreeChecker's retype
// pass (Listing 9's "strip and re-typecheck") relies on these recorded
// types, so they are pinned here.
//===----------------------------------------------------------------------===//

#include "ast/TreeUtils.h"
#include "frontend/Frontend.h"
#include "support/OStream.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

/// Types \p Source and returns the concatenated diagnostics ("" = clean).
std::string diagnose(const char *Source) {
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", Source});
  runFrontEnd(Comp, std::move(Sources));
  if (!Comp.diags().hasErrors())
    return "";
  StringOStream OS;
  Comp.diags().printAll(OS);
  return OS.str();
}

/// Types \p Source (must be clean) and hands the unit to \p Inspect.
void typedUnit(const char *Source,
               const std::function<void(CompilationUnit &,
                                        CompilerContext &)> &Inspect) {
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", Source});
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  if (Comp.diags().hasErrors()) {
    StringOStream OS;
    Comp.diags().printAll(OS);
    FAIL() << "unexpected errors:\n" << OS.str();
  }
  ASSERT_EQ(Units.size(), 1u);
  Inspect(Units[0], Comp);
}

//===----------------------------------------------------------------------===//
// Diagnostics on ill-typed programs
//===----------------------------------------------------------------------===//

TEST(TyperErrors, UnknownIdentifier) {
  EXPECT_NE(diagnose(R"(
class C { def f(): Int = missing }
)").find("not found: missing"),
            std::string::npos);
}

TEST(TyperErrors, UnknownType) {
  EXPECT_NE(diagnose(R"(
class C { def f(x: Mystery): Int = 1 }
)").find("unknown type"),
            std::string::npos);
}

TEST(TyperErrors, BodyTypeMismatch) {
  std::string D = diagnose(R"(
class C { def f(): Int = "not an int" }
)");
  EXPECT_NE(D.find("body of f"), std::string::npos) << D;
}

TEST(TyperErrors, ConditionMustBeBoolean) {
  EXPECT_NE(diagnose(R"(
class C { def f(): Int = if (1) 2 else 3 }
)").find("condition must be Boolean"),
            std::string::npos);
}

TEST(TyperErrors, WrongArgumentCount) {
  EXPECT_NE(diagnose(R"(
class C {
  def g(a: Int, b: Int): Int = a + b
  def f(): Int = g(1)
}
)").find("wrong number of arguments"),
            std::string::npos);
}

TEST(TyperErrors, ArgumentTypeMismatch) {
  std::string D = diagnose(R"(
class C {
  def g(a: Int): Int = a
  def f(): Int = g("str")
}
)");
  EXPECT_NE(D.find("argument"), std::string::npos) << D;
}

TEST(TyperErrors, MemberNotFound) {
  EXPECT_NE(diagnose(R"(
class A
class C { def f(a: A): Int = a.missing() }
)").find("missing is not a member of A"),
            std::string::npos);
}

TEST(TyperErrors, ReassignmentToVal) {
  EXPECT_NE(diagnose(R"(
class C {
  def f(): Int = { val x = 1; x = 2; x }
}
)").find("reassignment to val"),
            std::string::npos);
}

TEST(TyperErrors, CannotInstantiateTrait) {
  EXPECT_NE(diagnose(R"(
trait T
class C { def f(): T = new T }
)").find("cannot instantiate abstract class or trait"),
            std::string::npos);
}

TEST(TyperErrors, AbstractClassNotInstantiable) {
  EXPECT_NE(diagnose(R"(
abstract class A
class C { def f(): A = new A }
)").find("cannot instantiate abstract class or trait"),
            std::string::npos);
}

TEST(TyperErrors, ConstructorArityChecked) {
  EXPECT_NE(diagnose(R"(
class P(a: Int, b: Int)
class C { def f(): P = new P(1) }
)").find("wrong number of constructor arguments"),
            std::string::npos);
}

TEST(TyperErrors, ConstructorArgumentTypeChecked) {
  EXPECT_NE(diagnose(R"(
class P(a: Int)
class C { def f(): P = new P("s") }
)").find("constructor argument 1"),
            std::string::npos);
}

TEST(TyperErrors, ThrowRequiresThrowable) {
  EXPECT_NE(diagnose(R"(
class NotAnError
class C { def f(): Int = throw new NotAnError }
)").find("throw expects a Throwable"),
            std::string::npos);
}

TEST(TyperErrors, ReturnInFieldInitializerChecksAgainstInit) {
  // A class-level initializer executes inside <init>, whose result type
  // is Unit — returning an Int from it is a type error.
  std::string D = diagnose(R"(
class C { val x: Int = return 1 }
)");
  EXPECT_NE(D.find("return value has type Int, expected Unit"),
            std::string::npos)
      << D;
}

TEST(TyperErrors, DuplicateTopLevelName) {
  EXPECT_NE(diagnose(R"(
class Twice
class Twice
)").find("duplicate top-level name"),
            std::string::npos);
}

TEST(TyperErrors, GuardMustBeBoolean) {
  EXPECT_NE(diagnose(R"(
class C {
  def f(x: Int): Int = x match { case y if y => 1; case _ => 0 }
}
)").find("guard must be Boolean"),
            std::string::npos);
}

TEST(TyperErrors, PatternArityChecked) {
  EXPECT_NE(diagnose(R"(
case class P(a: Int, b: Int)
class C {
  def f(x: Any): Int = x match { case P(a) => a; case _ => 0 }
}
)").find("wrong number of sub-patterns"),
            std::string::npos);
}

TEST(TyperErrors, NonCaseClassUnapplyRejected) {
  EXPECT_NE(diagnose(R"(
class Plain(a: Int)
class C {
  def f(x: Any): Int = x match { case Plain(a) => a; case _ => 0 }
}
)").find("is not a case class"),
            std::string::npos);
}

TEST(TyperErrors, GenericArityChecked) {
  EXPECT_NE(diagnose(R"(
case class Box[T](value: T)
class C { def f(b: Box[Int, Int]): Int = 1 }
)").find("wrong number of type arguments"),
            std::string::npos);
}

TEST(TyperErrors, InferenceFailureIsReported) {
  // No argument mentions T, so T cannot be inferred.
  EXPECT_NE(diagnose(R"(
class C {
  def pick[T](): T = null.asInstanceOf[T]
  def f(): Int = { pick(); 1 }
}
)").find("could not infer type argument"),
            std::string::npos);
}

TEST(TyperErrors, ClassUsedAsValue) {
  EXPECT_NE(diagnose(R"(
class A
class C { def f(): Int = { val x = A; 1 } }
)").find("is a class, not a value"),
            std::string::npos);
}

TEST(TyperErrors, LocalValNeedsInitializer) {
  EXPECT_NE(diagnose(R"(
class C { def f(): Int = { val x; 1 } }
)").find("local value needs an initializer"),
            std::string::npos);
}

TEST(TyperErrors, RecursiveLocalMethodNeedsResultType) {
  EXPECT_NE(diagnose(R"(
class C {
  def f(): Int = {
    def loop(n: Int) = if (n == 0) 0 else loop(n - 1)
    loop(3)
  }
}
)").find("needs an explicit result type"),
            std::string::npos);
}

TEST(TyperErrors, ErrorsDoNotCascadeAcrossTopLevelDefs) {
  // One bad method must not poison an unrelated good one; we count the
  // reported errors rather than just detecting presence.
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"t.scala", R"(
class C {
  def bad(): Int = missing
  def good(): Int = 1 + 2
}
)"});
  runFrontEnd(Comp, std::move(Sources));
  EXPECT_EQ(Comp.diags().errorCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Types recorded on well-typed trees
//===----------------------------------------------------------------------===//

TEST(TyperResults, LiteralAndArithmeticTypes) {
  typedUnit(R"(
class C {
  def i(): Int = 1 + 2
  def d(): Double = 1.5 * 2.0
  def mixed(): Double = 1 + 2.5
  def b(): Boolean = 1 < 2
  def s(): String = "a" + 1
}
)",
            [](CompilationUnit &U, CompilerContext &Comp) {
              std::vector<Tree *> Defs;
              collectKind(U.Root.get(), TreeKind::DefDef, Defs);
              for (Tree *T : Defs) {
                auto *DD = cast<DefDef>(T);
                if (!DD->rhs() || DD->sym()->is(SymFlag::Constructor))
                  continue;
                std::string_view N = DD->sym()->name().text();
                const Type *RT = DD->rhs()->type();
                ASSERT_NE(RT, nullptr);
                if (N == "i") {
                  EXPECT_TRUE(RT->isPrim(PrimKind::Int));
                } else if (N == "d" || N == "mixed") {
                  EXPECT_TRUE(RT->isPrim(PrimKind::Double));
                } else if (N == "b") {
                  EXPECT_TRUE(RT->isPrim(PrimKind::Boolean));
                } else if (N == "s") {
                  EXPECT_EQ(RT, Comp.syms().stringType());
                }
              }
            });
}

TEST(TyperResults, IntPlusStringIsString) {
  typedUnit(R"(
class C { def f(): String = 1 + "tail" }
)",
            [](CompilationUnit &U, CompilerContext &Comp) {
              // Find the `+` application (skipping the synthesized
              // super-constructor call, which is also an Apply).
              bool Saw = false;
              forEachSubtree(U.Root.get(), [&](Tree *T) {
                auto *App = dyn_cast<Apply>(T);
                if (!App)
                  return;
                auto *Sel = dyn_cast<Select>(App->fun());
                if (!Sel || Sel->sym()->name().text() != "+")
                  return;
                Saw = true;
                EXPECT_EQ(App->type(), Comp.syms().stringType());
              });
              EXPECT_TRUE(Saw);
            });
}

TEST(TyperResults, IfLubIsComputed) {
  typedUnit(R"(
class A
class B extends A
class D extends A
class C {
  def f(c: Boolean): A = if (c) new B else new D
}
)",
            [](CompilationUnit &U, CompilerContext &Comp) {
              Tree *If = findFirst(U.Root.get(), TreeKind::If);
              ASSERT_NE(If, nullptr);
              // lub(B, D) must be a supertype of both; A or a union of the
              // two branches are both acceptable here.
              const Type *Ty = If->type();
              ASSERT_NE(Ty, nullptr);
              EXPECT_TRUE(Comp.types().isSubtype(
                  cast<mpc::If>(If)->thenp()->type(), Ty));
              EXPECT_TRUE(Comp.types().isSubtype(
                  cast<mpc::If>(If)->elsep()->type(), Ty));
            });
}

TEST(TyperResults, GenericInstantiationInfersFromArguments) {
  typedUnit(R"(
case class Box[T](value: T)
class C {
  def f(): Int = Box(41).value + 1
}
)",
            [](CompilationUnit &U, CompilerContext &) {
              // The selection Box(41).value must already be Int, not T.
              bool SawValueSelect = false;
              forEachSubtree(U.Root.get(), [&](Tree *T) {
                auto *Sel = dyn_cast<Select>(T);
                if (!Sel || Sel->sym()->name().text() != "value")
                  return;
                SawValueSelect = true;
                EXPECT_TRUE(Sel->type()->isPrim(PrimKind::Int))
                    << Sel->type()->show();
              });
              EXPECT_TRUE(SawValueSelect);
            });
}

TEST(TyperResults, LambdaGetsFunctionType) {
  typedUnit(R"(
class C {
  def f(): (Int) => Int = (x: Int) => x + 1
}
)",
            [](CompilationUnit &U, CompilerContext &) {
              Tree *Cl = findFirst(U.Root.get(), TreeKind::Closure);
              ASSERT_NE(Cl, nullptr);
              const auto *FT = dyn_cast<FunctionType>(Cl->type());
              ASSERT_NE(FT, nullptr);
              ASSERT_EQ(FT->params().size(), 1u);
              EXPECT_TRUE(FT->params()[0]->isPrim(PrimKind::Int));
              EXPECT_TRUE(FT->result()->isPrim(PrimKind::Int));
            });
}

TEST(TyperResults, UnionTypeRoundTripsThroughAnnotation) {
  typedUnit(R"(
class A
class B
class C {
  def f(c: Boolean, a: A, b: B): A | B = if (c) a else b
}
)",
            [](CompilationUnit &U, CompilerContext &) {
              std::vector<Tree *> Defs;
              collectKind(U.Root.get(), TreeKind::DefDef, Defs);
              for (Tree *T : Defs) {
                auto *DD = cast<DefDef>(T);
                if (DD->sym()->name().text() != "f")
                  continue;
                const auto *MT =
                    dyn_cast<MethodType>(DD->sym()->info());
                ASSERT_NE(MT, nullptr);
                EXPECT_TRUE(isa<UnionType>(MT->result()))
                    << MT->result()->show();
              }
            });
}

TEST(TyperResults, ByNameParamTypesAsExprType) {
  typedUnit(R"(
class C {
  def unless(c: Boolean, body: => Int): Int = if (c) 0 else body
}
)",
            [](CompilationUnit &U, CompilerContext &) {
              std::vector<Tree *> Defs;
              collectKind(U.Root.get(), TreeKind::DefDef, Defs);
              bool Saw = false;
              for (Tree *T : Defs) {
                auto *DD = cast<DefDef>(T);
                if (DD->sym()->name().text() != "unless")
                  continue;
                const auto *MT = dyn_cast<MethodType>(DD->sym()->info());
                ASSERT_NE(MT, nullptr);
                ASSERT_EQ(MT->params().size(), 2u);
                EXPECT_TRUE(isa<ExprType>(MT->params()[1]));
                Saw = true;
              }
              EXPECT_TRUE(Saw);
            });
}

TEST(TyperResults, VarargParamTypesAsRepeated) {
  typedUnit(R"(
class C { def f(xs: Int*): Int = xs.length }
)",
            [](CompilationUnit &U, CompilerContext &) {
              std::vector<Tree *> Defs;
              collectKind(U.Root.get(), TreeKind::DefDef, Defs);
              bool Saw = false;
              for (Tree *T : Defs) {
                auto *DD = cast<DefDef>(T);
                if (DD->sym()->name().text() != "f")
                  continue;
                const auto *MT = dyn_cast<MethodType>(DD->sym()->info());
                ASSERT_NE(MT, nullptr);
                ASSERT_EQ(MT->params().size(), 1u);
                EXPECT_TRUE(isa<RepeatedType>(MT->params()[0]));
                Saw = true;
              }
              EXPECT_TRUE(Saw);
            });
}

TEST(TyperResults, ValParamBecomesSelectableMember) {
  typedUnit(R"(
class P(val x: Int, var y: Int)
class C {
  def f(p: P): Int = p.x + p.y
}
)",
            [](CompilationUnit &U, CompilerContext &) {
              // Both selections typecheck; y's field is mutable.
              std::vector<Tree *> Sels;
              collectKind(U.Root.get(), TreeKind::Select, Sels);
              bool SawY = false;
              for (Tree *T : Sels) {
                auto *Sel = cast<Select>(T);
                if (Sel->sym()->name().text() == "y") {
                  SawY = true;
                  EXPECT_TRUE(Sel->sym()->is(SymFlag::Mutable));
                }
              }
              EXPECT_TRUE(SawY);
            });
}

TEST(TyperResults, MultipleUnitsSeeEachOther) {
  // Cross-file references: unit order must not matter.
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"use.scala", R"(
class Use { def f(d: Def): Int = d.provide() }
)"});
  Sources.push_back({"def.scala", R"(
class Def { def provide(): Int = 7 }
)"});
  std::vector<CompilationUnit> Units = runFrontEnd(Comp, std::move(Sources));
  EXPECT_FALSE(Comp.diags().hasErrors());
  EXPECT_EQ(Units.size(), 2u);
}

TEST(TyperResults, IntersectionMemberSelectionPicksEitherSide) {
  typedUnit(R"(
trait R { def read(): Int = 1 }
trait W { def write(): Int = 2 }
class C {
  def use(rw: R & W): Int = rw.read() + rw.write()
}
)",
            [](CompilationUnit &U, CompilerContext &) {
              int Selections = 0;
              forEachSubtree(U.Root.get(), [&](Tree *T) {
                auto *Sel = dyn_cast<Select>(T);
                if (!Sel)
                  return;
                std::string_view N = Sel->sym()->name().text();
                if (N == "read" || N == "write")
                  ++Selections;
              });
              EXPECT_EQ(Selections, 2);
            });
}

} // namespace
