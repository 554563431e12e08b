//===----------------------------------------------------------------------===//
// Backend tests: bytecode generation structure and interpreter semantics
// on small focused programs.
//===----------------------------------------------------------------------===//

#include "backend/CodeGen.h"
#include "backend/Interpreter.h"
#include "backend/Linker.h"
#include "backend/VM.h"
#include "driver/Driver.h"
#include "support/CancelToken.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <set>
#include <thread>
#include <type_traits>

using namespace mpc;

namespace {

CompileOutput compile(CompilerContext &Comp, const char *Source) {
  std::vector<SourceInput> Sources;
  Sources.push_back({"b.scala", Source});
  CompileOutput Out =
      compileProgram(Comp, std::move(Sources), PipelineKind::StandardFused);
  EXPECT_FALSE(Comp.diags().hasErrors());
  return Out;
}

TEST(CodeGenTest, EmitsClassesAndMethods) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
class Calc(base: Int) {
  def add(x: Int): Int = base + x
  def branch(b: Boolean): Int = if (b) 1 else 2
  def spin(n: Int): Int = { var i = 0; while (i < n) i = i + 1; i }
}
)");
  ASSERT_EQ(Out.Prog.Classes.size(), 1u);
  const ClassFile &CF = Out.Prog.Classes[0];
  EXPECT_EQ(std::string(CF.Cls->name().text()), "Calc");
  // base field + <init> + 3 methods.
  EXPECT_GE(CF.Fields.size(), 1u);
  EXPECT_GE(CF.Methods.size(), 4u);
  EXPECT_GT(Out.Prog.totalInstructions(), 20u);

  // Branches must have valid targets.
  for (const MethodCode &M : CF.Methods)
    for (const Instr &I : M.Code)
      if (I.Code == Op::Jump || I.Code == Op::JumpIfFalse) {
        EXPECT_GE(I.Target, 0);
        EXPECT_LE(static_cast<size_t>(I.Target), M.Code.size());
      }
}

TEST(CodeGenTest, TryProducesHandlerTable) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
class C {
  def f(x: Int): Int =
    try 100 / x catch { case t: Throwable => 0 }
}
)");
  bool SawHandler = false;
  for (const ClassFile &CF : Out.Prog.Classes)
    for (const MethodCode &M : CF.Methods)
      if (!M.Handlers.empty()) {
        SawHandler = true;
        EXPECT_LT(M.Handlers[0].Start, M.Handlers[0].End);
        EXPECT_GE(M.Handlers[0].Entry, M.Handlers[0].End);
      }
  EXPECT_TRUE(SawHandler);
}

// The compact layout: a method's code is one block of trivially
// destructible instructions, and a Program owns the pool its StrRefs
// point into, so it may move but never copy.
static_assert(sizeof(Instr) <= 56);
static_assert(std::is_trivially_copyable_v<Instr>);
static_assert(std::is_trivially_destructible_v<Instr>);
static_assert(!std::is_copy_constructible_v<Program>);
static_assert(!std::is_copy_assignable_v<Program>);
static_assert(std::is_nothrow_move_constructible_v<Program>);
static_assert(std::is_nothrow_move_assignable_v<Program>);

TEST(CodeGenTest, MethodArraysAreExactSize) {
  WorkloadProfile W = dottyProfile(0.1);
  W.Seed = 1;
  CompilerContext Comp;
  CompileOutput Out = compileProgram(Comp, generateWorkload(W),
                                     PipelineKind::StandardFused);
  ASSERT_FALSE(Comp.diags().hasErrors());
  ASSERT_GT(Out.Prog.totalInstructions(), 10000u);
  for (const ClassFile &CF : Out.Prog.Classes)
    for (const MethodCode &M : CF.Methods) {
      SCOPED_TRACE(M.Method->fullName());
      EXPECT_EQ(M.Code.capacity(), M.Code.size());
      EXPECT_EQ(M.Params.capacity(), M.Params.size());
      EXPECT_EQ(M.Handlers.capacity(), M.Handlers.size());
    }
}

TEST(CodeGenTest, EqualStringLiteralsShareOnePoolEntry) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
class C {
  def a(): String = "twice"
  def b(): String = "twice"
  def c(): String = "once, and longer than the small-string buffer"
  def d(): String = ""
}
)");
  std::map<std::string, std::set<const std::string *>> EntriesOf;
  for (const ClassFile &CF : Out.Prog.Classes)
    for (const MethodCode &M : CF.Methods)
      for (const Instr &I : M.Code)
        if (I.Code == Op::ConstStr)
          EntriesOf[I.Str].insert(I.Str.entry());
  ASSERT_EQ(EntriesOf.size(), 3u);
  for (const auto &[Text, Entries] : EntriesOf) {
    EXPECT_EQ(Entries.size(), 1u) << '"' << Text << '"';
    EXPECT_EQ(**Entries.begin(), Text);
  }
  EXPECT_EQ(Out.Prog.Strings.size(), 3u);
  // An instruction without a string operand reads as the empty string.
  EXPECT_EQ(Instr().Str.str(), "");
}

TEST(CodeGenTest, MovedProgramOutlivesItsCompileOutput) {
  CompilerContext Comp;
  Program Prog;
  Symbol *Entry = nullptr;
  {
    CompileOutput Out = compile(Comp, R"(
object Main {
  def greet(who: String): String = "hello, " + who
  def main(args: Array[String]): Unit = {
    println(greet("pool"))
    println(greet("pool") == "hello, pool")
  }
}
)");
    ASSERT_FALSE(Out.EntryPoints.empty());
    Entry = Out.EntryPoints.front();
    Prog = std::move(Out.Prog);
  }
  LinkedProgram Linked = linkProgram(Prog, Comp);
  ASSERT_TRUE(Linked.Failures.empty());
  VM M(Comp, Linked);
  ExecResult R = M.runMain(Entry);
  EXPECT_FALSE(R.Uncaught) << R.Error;
  EXPECT_EQ(R.Output, "hello, pool\ntrue\n");
}

/// `def f(p0: Int, ..., pN-1: Int): Int = p0 + p1`, called with N
/// literals.
std::string wideCallProgram(unsigned N) {
  std::string S = "object Main {\n  def f(";
  for (unsigned I = 0; I < N; ++I)
    S += (I ? ", p" : "p") + std::to_string(I) + ": Int";
  S += "): Int = p0 + p1\n  def main(args: Array[String]): Unit = {\n"
       "    println(f(";
  for (unsigned I = 0; I < N; ++I)
    S += (I ? ", " : "") + std::to_string(40 + I % 3);
  S += "))\n    println(7)\n  }\n}\n";
  return S;
}

TEST(CodeGenTest, CallArgumentCountIsCheckedAtItsLimit) {
  {
    // 65,535 arguments fit the instruction: both engines agree.
    CompilerContext Comp;
    std::string Source = wideCallProgram(65535);
    CompileOutput Out = compile(Comp, Source.c_str());
    ASSERT_FALSE(Out.EntryPoints.empty());
    Interpreter Oracle(Comp, Out.Units);
    ExecResult Want = Oracle.runMain(Out.EntryPoints.front());
    EXPECT_FALSE(Want.Uncaught) << Want.Error;
    EXPECT_EQ(Want.Output, "81\n7\n");
    LinkedProgram Linked = linkProgram(Out.Prog, Comp);
    ASSERT_TRUE(Linked.Failures.empty());
    VM M(Comp, Linked);
    ExecResult Got = M.runMain(Out.EntryPoints.front());
    EXPECT_EQ(Got.Output, Want.Output);
    EXPECT_EQ(Got.Uncaught, Want.Uncaught);
  }
  {
    // One more is a compile error, and the method holding the call is
    // refused if the program is linked anyway.
    CompilerContext Comp;
    std::vector<SourceInput> Sources;
    Sources.push_back({"wide.scala", wideCallProgram(65536)});
    CompileOutput Out = compileProgram(Comp, std::move(Sources),
                                       PipelineKind::StandardFused);
    ASSERT_EQ(Comp.diags().errorCount(), 1u);
    EXPECT_EQ(Comp.diags().all().back().Message,
              "call passes 65536 arguments; bytecode allows at most 65535");
    ASSERT_FALSE(Out.EntryPoints.empty());
    LinkedProgram Linked = linkProgram(Out.Prog, Comp);
    ASSERT_EQ(Linked.Failures.size(), 1u);
    EXPECT_EQ(Linked.Failures[0].Message, "empty method body");
    VM M(Comp, Linked);
    ExecResult R = M.runMain(Out.EntryPoints.front());
    EXPECT_TRUE(R.Uncaught);
    EXPECT_EQ(R.Error.rfind("bytecode verification failed: ", 0), 0u)
        << R.Error;
  }
}

TEST(InterpreterTest, ArithmeticAndComparisons) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
object Main {
  def main(args: Array[String]): Unit = {
    println(7 / 2)
    println(7 % 3)
    println(2.5 * 2)
    println(1 + 2 * 3 - 4)
    println(3 < 4)
    println(!(3 < 4) || 2 >= 2)
    println(-5)
  }
}
)");
  Interpreter I(Comp, Out.Units);
  ExecResult R = I.runMain(Out.EntryPoints.front());
  EXPECT_FALSE(R.Uncaught) << R.Error;
  EXPECT_EQ(R.Output, "3\n1\n5\n3\ntrue\ntrue\n-5\n");
}

TEST(InterpreterTest, ExceptionsPropagateAndPrint) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
object Main {
  def main(args: Array[String]): Unit = {
    println(1 / 1)
    println(1 / 0)
  }
}
)");
  Interpreter I(Comp, Out.Units);
  ExecResult R = I.runMain(Out.EntryPoints.front());
  EXPECT_TRUE(R.Uncaught);
  EXPECT_NE(R.Error.find("ArithmeticException"), std::string::npos);
  EXPECT_EQ(R.Output, "1\n"); // output before the crash is retained
}

TEST(InterpreterTest, VirtualDispatchAndOverrides) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
class Animal { def sound(): String = "..." }
class Dog extends Animal { override def sound(): String = "woof" }
object Main {
  def speak(a: Animal): String = a.sound()
  def main(args: Array[String]): Unit = {
    println(speak(new Animal))
    println(speak(new Dog))
  }
}
)");
  Interpreter I(Comp, Out.Units);
  ExecResult R = I.runMain(Out.EntryPoints.front());
  EXPECT_FALSE(R.Uncaught) << R.Error;
  EXPECT_EQ(R.Output, "...\nwoof\n");
}

TEST(InterpreterTest, StepLimitGuardsInfiniteLoops) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
object Main {
  def main(args: Array[String]): Unit = {
    var i = 0
    while (true) { i = i + 1 }
  }
}
)");
  Interpreter I(Comp, Out.Units, /*StepLimit=*/10000);
  ExecResult R = I.runMain(Out.EntryPoints.front());
  EXPECT_TRUE(R.Uncaught);
  EXPECT_NE(R.Error.find("step limit"), std::string::npos);
}

TEST(InterpreterTest, DispatchLoopHonorsCancellation) {
  // A guest infinite loop must be cancellable mid-run: the dispatch loop
  // polls the context's CancelToken every 256th step, so DeadlineExceeded
  // unwinds out of runMain (past the guest-level exception handlers)
  // instead of the worker spinning until the step limit.
  const char *Spin = R"(
object Main {
  def main(args: Array[String]): Unit = {
    var i = 0
    while (true) { i = i + 1 }
  }
}
)";
  {
    // Pre-expired deadline: the very first poll window throws.
    CompilerContext Comp;
    CompileOutput Out = compile(Comp, Spin);
    CancelToken Token;
    Token.armDeadline(CancelToken::Clock::now());
    Comp.setCancelToken(&Token);
    Interpreter I(Comp, Out.Units, /*StepLimit=*/~uint64_t(0));
    EXPECT_THROW(I.runMain(Out.EntryPoints.front()), DeadlineExceeded);
    Comp.setCancelToken(nullptr);
  }
  {
    // Cross-thread cancel() against a loop that would otherwise run
    // (effectively) forever — the service's "cancel a wedged job" story.
    CompilerContext Comp;
    CompileOutput Out = compile(Comp, Spin);
    CancelToken Token;
    Comp.setCancelToken(&Token);
    Interpreter I(Comp, Out.Units, /*StepLimit=*/~uint64_t(0));
    std::thread Canceller([&Token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      Token.cancel();
    });
    EXPECT_THROW(I.runMain(Out.EntryPoints.front()), DeadlineExceeded);
    Canceller.join();
    Comp.setCancelToken(nullptr);
  }
}

TEST(InterpreterTest, CaseClassEqualityAndToString) {
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, R"(
case class P(x: Int, y: Int)
object Main {
  def main(args: Array[String]): Unit = {
    println(P(1, 2))
    println(P(1, 2) == P(1, 2))
    println(P(1, 2) == P(2, 1))
  }
}
)");
  Interpreter I(Comp, Out.Units);
  ExecResult R = I.runMain(Out.EntryPoints.front());
  EXPECT_FALSE(R.Uncaught) << R.Error;
  EXPECT_EQ(R.Output, "P(1, 2)\ntrue\nfalse\n");
}

} // namespace
