//===----------------------------------------------------------------------===//
// Bytecode-VM differential suite: the tree-walking interpreter is the
// semantic oracle, and the linked VM must match it byte for byte — same
// printed output, same uncaught-exception flag, same error text — on
// every valid generator family across a seed sweep, with superinstruction
// fusion both on and off. Directed cases pin the behaviours the sweep is
// unlikely to hit on every seed: try/finally interleavings, VM-raised
// errors crossing finalizers, step-limit traps, deadline cancellation
// mid-loop, and the verifier-refusal path.
//
// Sharded via GTEST_TOTAL_SHARDS/GTEST_SHARD_INDEX (see CMakeLists).
//===----------------------------------------------------------------------===//

#include "backend/Linker.h"
#include "backend/VM.h"
#include "backend/Verifier.h"
#include "driver/Driver.h"
#include "memsim/PagePool.h"
#include "support/CancelToken.h"
#include "support/OStream.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

/// What both engines must agree on. StepsExecuted is deliberately NOT
/// compared: the VM executes linked superinstructions, so its step count
/// legitimately differs from the tree-walker's node count.
struct Outcome {
  std::string Output;
  bool Uncaught = false;
  std::string Error;
};

bool operator==(const Outcome &A, const Outcome &B) {
  return A.Output == B.Output && A.Uncaught == B.Uncaught &&
         A.Error == B.Error;
}

std::ostream &operator<<(std::ostream &OS, const Outcome &O) {
  return OS << "{uncaught=" << O.Uncaught << " error='" << O.Error
            << "' output='" << O.Output << "'}";
}

Outcome fromResult(const ExecResult &R) {
  Outcome O;
  O.Output = R.Output;
  O.Uncaught = R.Uncaught;
  if (R.Uncaught)
    O.Error = R.Error;
  return O;
}

/// Compiles through the full fused pipeline and runs the bytecode
/// verifier over the result (the VM suites always verify). Fails the
/// test on frontend or verifier trouble.
CompileOutput compile(CompilerContext &Comp, std::vector<SourceInput> Sources) {
  CompileOutput Out =
      compileProgram(Comp, std::move(Sources), PipelineKind::StandardFused);
  if (Comp.diags().hasErrors()) {
    StringOStream OS;
    Comp.diags().printAll(OS);
    ADD_FAILURE() << "frontend errors:\n" << OS.str();
  }
  for (const VerifyFailure &F : verifyProgram(Out.Prog))
    ADD_FAILURE() << "verifier: pc " << F.Pc << ": " << F.Message;
  EXPECT_FALSE(Out.EntryPoints.empty()) << "no entry point";
  return Out;
}

Outcome runTreeWalk(CompilerContext &Comp, const CompileOutput &Out,
                    uint64_t StepLimit = 50'000'000) {
  Interpreter I(Comp, Out.Units, StepLimit);
  return fromResult(I.runMain(Out.EntryPoints.front()));
}

Outcome runVM(CompilerContext &Comp, const CompileOutput &Out,
              bool Superinstructions, uint64_t StepLimit = 50'000'000) {
  LinkOptions LO;
  LO.Superinstructions = Superinstructions;
  LinkedProgram Linked = linkProgram(Out.Prog, Comp, LO);
  EXPECT_TRUE(Linked.Failures.empty())
      << "link-time verify: " << Linked.Failures.front().Message;
  VM M(Comp, Linked, StepLimit);
  return fromResult(M.runMain(Out.EntryPoints.front()));
}

/// The core check: one compile, three engines, byte-identical outcomes.
void expectEnginesAgree(const char *Source) {
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", Source});
  CompileOutput Out = compile(Comp, std::move(Sources));
  if (Out.EntryPoints.empty())
    return;
  Outcome Oracle = runTreeWalk(Comp, Out);
  EXPECT_EQ(Oracle, runVM(Comp, Out, /*Superinstructions=*/true))
      << "tree-walker vs fused VM";
  EXPECT_EQ(Oracle, runVM(Comp, Out, /*Superinstructions=*/false))
      << "tree-walker vs unfused VM";
}

//===----------------------------------------------------------------------===//
// Family sweep
//===----------------------------------------------------------------------===//

std::string familyTestName(Family F) {
  std::string N = familyName(F);
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

std::vector<Family> validFamilies() {
  std::vector<Family> V;
  for (Family F : allFamilies())
    if (familyIsValid(F))
      V.push_back(F);
  return V;
}

class VMFamilyDifferential
    : public ::testing::TestWithParam<std::tuple<Family, uint64_t>> {};

TEST_P(VMFamilyDifferential, MatchesTreeWalker) {
  const auto &[F, Seed] = GetParam();
  CompilerContext Comp;
  CompileOutput Out = compile(Comp, generateFamily(F, Seed, 0.3));
  if (Out.EntryPoints.empty())
    return;

  Outcome Oracle = runTreeWalk(Comp, Out);
  EXPECT_FALSE(Oracle.Uncaught) << familyName(F) << " seed " << Seed << ": "
                                << Oracle.Error;
  EXPECT_FALSE(Oracle.Output.empty());

  EXPECT_EQ(Oracle, runVM(Comp, Out, /*Superinstructions=*/true))
      << familyName(F) << " seed " << Seed << ": tree-walker vs fused VM";
  EXPECT_EQ(Oracle, runVM(Comp, Out, /*Superinstructions=*/false))
      << familyName(F) << " seed " << Seed << ": tree-walker vs unfused VM";
}

INSTANTIATE_TEST_SUITE_P(
    ValidFamilies, VMFamilyDifferential,
    ::testing::Combine(::testing::ValuesIn(validFamilies()),
                       ::testing::Values(0u, 1u, 2u, 5u, 11u, 23u, 47u,
                                         101u)),
    [](const ::testing::TestParamInfo<std::tuple<Family, uint64_t>> &Info) {
      return familyTestName(std::get<0>(Info.param)) + "_seed" +
             std::to_string(std::get<1>(Info.param));
    });

//===----------------------------------------------------------------------===//
// Directed: exception paths
//===----------------------------------------------------------------------===//

TEST(VMDirected, TryCatchFinallyInterleavings) {
  expectEnginesAgree(R"(
class Boom(val code: Int) extends Throwable
object Main {
  var log: Int = 0
  def risky(n: Int): Int =
    if (n > 10) throw new Boom(n) else n
  def viaFinally(n: Int): Int = {
    try risky(n)
    catch { case b: Boom => b.code * 100 }
    finally { log = log + 1 }
  }
  def main(args: Array[String]): Unit = {
    println(viaFinally(5))
    println(viaFinally(50))
    println(log)
    println(try { throw new Boom(7) } catch { case b: Boom => b.code }
            finally { log = log + 10 })
    println(log)
  }
}
)");
}

TEST(VMDirected, NonMatchingCatchRethrows) {
  expectEnginesAgree(R"(
class A(val x: Int) extends Throwable
class B(val x: Int) extends Throwable
object Main {
  def main(args: Array[String]): Unit = {
    val r =
      try {
        try { throw new B(1) } catch { case a: A => a.x }
      } catch { case b: B => 42 + b.x }
    println(r)
  }
}
)");
}

TEST(VMDirected, UncaughtGuestExceptionMatchesOracle) {
  expectEnginesAgree(R"(
class Boom(val msg: String) extends Throwable
object Main {
  def main(args: Array[String]): Unit = {
    println("before")
    throw new Boom("kapow")
  }
}
)");
}

TEST(VMDirected, VmErrorCrossesFinalizer) {
  // Division by zero is a VM-raised guest error; it must still run the
  // finalizer on its way out and stay catchable as a Throwable.
  expectEnginesAgree(R"(
object Main {
  var log: Int = 0
  def main(args: Array[String]): Unit = {
    val r =
      try { try 1 / 0 finally { log = log + 1 } }
      catch { case t: Throwable => log + 100 }
    println(r)
    println(log)
  }
}
)");
}

TEST(VMDirected, UncaughtArithmeticErrorText) {
  expectEnginesAgree(R"(
object Main {
  def main(args: Array[String]): Unit = {
    println("reached")
    println(5 % 0)
  }
}
)");
}

TEST(VMDirected, NullFieldAccessAndCasts) {
  expectEnginesAgree(R"(
class Box(val v: Int)
object Main {
  def grab(b: Box): Int = b.v
  def main(args: Array[String]): Unit = {
    val b: Box = null
    val r = try grab(b) catch { case t: Throwable => -1 }
    println(r)
    val o: Object = new Box(3)
    println(o.isInstanceOf[Box])
    val c = try { o.asInstanceOf[Box].v }
            catch { case t: Throwable => -2 }
    println(c)
  }
}
)");
}

//===----------------------------------------------------------------------===//
// Directed: dispatch, closures, case classes, arrays
//===----------------------------------------------------------------------===//

TEST(VMDirected, MegamorphicCallSiteShakesInlineCache) {
  // One call site sees three receiver classes: the monomorphic IC must
  // miss-and-refill without changing behaviour.
  expectEnginesAgree(R"(
class Shape { def area(): Int = 0 }
class Sq(val s: Int) extends Shape { override def area(): Int = s * s }
class Rect(val w: Int, val h: Int) extends Shape {
  override def area(): Int = w * h
}
object Main {
  def total(shapes: Array[Shape]): Int = {
    var sum = 0
    var i = 0
    while (i < shapes.length) {
      sum = sum + shapes(i).area()
      i = i + 1
    }
    sum
  }
  def main(args: Array[String]): Unit = {
    val a = new Array[Shape](6)
    a(0) = new Shape
    a(1) = new Sq(2)
    a(2) = new Rect(2, 3)
    a(3) = new Sq(4)
    a(4) = new Rect(5, 6)
    a(5) = new Shape
    println(total(a))
  }
}
)");
}

TEST(VMDirected, CaseClassShowAndEquality) {
  expectEnginesAgree(R"(
case class P(x: Int, y: Int)
case class Wrap(p: P, tag: String)
object Main {
  def main(args: Array[String]): Unit = {
    val a = Wrap(P(1, 2), "a")
    val b = Wrap(P(1, 2), "a")
    val c = Wrap(P(1, 3), "a")
    println(a)
    println(a == b)
    println(a == c)
    println(a.toString)
  }
}
)");
}

TEST(VMDirected, ClosuresCaptureMutableState) {
  expectEnginesAgree(R"(
object Main {
  def counter(): () => Int = {
    var n = 0
    () => { n = n + 1; n }
  }
  def main(args: Array[String]): Unit = {
    val c = counter()
    val d = counter()
    println(c())
    println(c())
    println(d())
    println(c() + d())
  }
}
)");
}

TEST(VMDirected, DoublePromotionAndComparisons) {
  expectEnginesAgree(R"(
object Main {
  def main(args: Array[String]): Unit = {
    println(1 + 2.5)
    println(7 / 2)
    println(7.0 / 2)
    println(7 % 3)
    println(2 < 2.5)
    println(3.0 == 3)
    println(-5 / -2)
    println(-5 % 2)
  }
}
)");
}

//===----------------------------------------------------------------------===//
// Directed: resource limits and cancellation
//===----------------------------------------------------------------------===//

const char *InfiniteLoop = R"(
object Main {
  def main(args: Array[String]): Unit = {
    var i = 0
    while (true) { i = i + 1 }
    println(i)
  }
}
)";

TEST(VMDirected, StepLimitTrapsBothEngines) {
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", InfiniteLoop});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());

  Outcome TW = runTreeWalk(Comp, Out, /*StepLimit=*/20'000);
  EXPECT_TRUE(TW.Uncaught);
  EXPECT_EQ(TW.Error, "step limit exceeded");

  Outcome BV = runVM(Comp, Out, /*Superinstructions=*/true,
                     /*StepLimit=*/20'000);
  EXPECT_TRUE(BV.Uncaught);
  EXPECT_EQ(BV.Error, "step limit exceeded");
}

TEST(VMDirected, StepLimitIsNotCatchable) {
  // A step-limit trap is a resource error, not a guest Throwable: a
  // catch-all must not swallow it in either engine.
  const char *Source = R"(
object Main {
  def spin(): Int = {
    var i = 0
    while (true) { i = i + 1 }
    i
  }
  def main(args: Array[String]): Unit = {
    val r = try spin() catch { case t: Throwable => -1 }
    println(r)
  }
}
)";
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", Source});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());

  Outcome TW = runTreeWalk(Comp, Out, /*StepLimit=*/20'000);
  Outcome BV = runVM(Comp, Out, /*Superinstructions=*/true,
                     /*StepLimit=*/20'000);
  EXPECT_TRUE(TW.Uncaught);
  EXPECT_TRUE(BV.Uncaught);
  EXPECT_EQ(TW.Error, "step limit exceeded");
  EXPECT_EQ(BV.Error, "step limit exceeded");
}

TEST(VMDirected, DeadlineCancellationMidLoop) {
  // A cancelled token must stop a guest infinite loop via the dispatch
  // loop's polling — the VM honors the context's CancelToken exactly
  // like the tree-walker does.
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", InfiniteLoop});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());

  CancelToken Tok;
  Tok.cancel();
  Comp.setCancelToken(&Tok);
  EXPECT_THROW(runTreeWalk(Comp, Out), DeadlineExceeded);
  EXPECT_THROW(runVM(Comp, Out, /*Superinstructions=*/true),
               DeadlineExceeded);
  Comp.setCancelToken(nullptr);
}

//===----------------------------------------------------------------------===//
// Directed: VM counters and the verifier-refusal path
//===----------------------------------------------------------------------===//

TEST(VMDirected, LinkedRunFlushesCounters) {
  const char *Source = R"(
object Main {
  def main(args: Array[String]): Unit = println(6 * 7)
}
)";
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", Source});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());

  LinkedProgram Linked = linkProgram(Out.Prog, Comp);
  ASSERT_TRUE(Linked.Failures.empty());
  VM M(Comp, Linked);
  ExecResult R = M.runMain(Out.EntryPoints.front());
  EXPECT_FALSE(R.Uncaught) << R.Error;
  EXPECT_EQ(R.Output, "42\n");
  // The VM flushed its counters into the context's stats.
  EXPECT_GT(Comp.stats().get("backend.vm.steps"), 0u);
  EXPECT_GT(Comp.stats().get("backend.vm.frames"), 0u);
}

TEST(VMDirected, VerifierRefusalBlocksExecution) {
  const char *Source = R"(
object Main {
  def main(args: Array[String]): Unit = println(1)
}
)";
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", Source});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());
  ASSERT_FALSE(Out.Prog.Classes.empty());
  ASSERT_FALSE(Out.Prog.Classes.front().Methods.empty());

  // Corrupt one method: a jump far out of range. The linker re-verifies
  // and the VM must refuse the whole program rather than execute it.
  MethodCode &MC = Out.Prog.Classes.front().Methods.front();
  MC.Code.clear();
  Instr Bad;
  Bad.Code = Op::Jump;
  Bad.Target = 1000;
  MC.Code.push_back(Bad);
  MC.Handlers.clear();

  LinkedProgram Linked = linkProgram(Out.Prog, Comp, {});
  ASSERT_FALSE(Linked.Failures.empty());
  VM M(Comp, Linked);
  ExecResult R = M.runMain(Out.EntryPoints.front());
  EXPECT_TRUE(R.Uncaught);
  EXPECT_EQ(R.Error.rfind("bytecode verification failed: ", 0), 0u)
      << R.Error;
}

const char *SumLoop = R"(
object Main {
  def main(args: Array[String]): Unit = {
    var i = 0
    var sum = 0
    while (i < 100) {
      sum = sum + i
      i = i + 1
    }
    println(sum)
  }
}
)";

TEST(VMDirected, PairCountsCoverTheFusionTable) {
  // The superinstruction table was picked from measured pair counts;
  // this pins that the measurement machinery still sees the fused pairs
  // when fusion is off (i.e. the table stays justified by data).
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", SumLoop});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());

  LinkOptions LO;
  LO.Superinstructions = false;
  LinkedProgram Linked = linkProgram(Out.Prog, Comp, LO);
  VM M(Comp, Linked);
  M.enablePairCounts();
  ExecResult R = M.runMain(Out.EntryPoints.front());
  ASSERT_FALSE(R.Uncaught) << R.Error;

  const std::vector<uint64_t> &Pairs = M.pairCounts();
  const size_t N = static_cast<size_t>(LOp::NumLOps);
  ASSERT_EQ(Pairs.size(), N * N);
  // The loop head compares then conditionally jumps: the pair backing
  // the CmpLtJF superinstruction must be hot.
  uint64_t CmpLtThenJF = Pairs[static_cast<size_t>(LOp::CmpLt) * N +
                               static_cast<size_t>(LOp::JumpIfFalse)];
  EXPECT_GT(CmpLtThenJF, 50u);
  // LoadSlot;LoadSlot backs LoadLoad.
  uint64_t LoadThenLoad = Pairs[static_cast<size_t>(LOp::LoadSlot) * N +
                                static_cast<size_t>(LOp::LoadSlot)];
  EXPECT_GT(LoadThenLoad, 0u);
}


//===----------------------------------------------------------------------===//
// Directed: step accounting and run-to-run independence
//===----------------------------------------------------------------------===//

bool sameResult(const ExecResult &A, const ExecResult &B) {
  return A.Output == B.Output && A.Uncaught == B.Uncaught &&
         A.Error == B.Error && A.StepsExecuted == B.StepsExecuted;
}

std::string describe(const ExecResult &R) {
  return "{steps=" + std::to_string(R.StepsExecuted) +
         " uncaught=" + std::to_string(R.Uncaught) + " error='" + R.Error +
         "' output='" + R.Output + "'}";
}

const char *CallsAndFinally = R"(
object Main {
  def add(a: Int, b: Int): Int = a + b
  def guarded(n: Int): Int = {
    var r = 0
    try { r = add(n, 1) } finally { r = r * 2 }
    r
  }
  def main(args: Array[String]): Unit = {
    var i = 0
    var acc = 0
    while (i < 10) {
      acc = acc + guarded(i)
      i = i + 1
    }
    println(acc)
  }
}
)";

TEST(VMDirected, StepAccountingIsExact) {
  // Every dispatch is one step, the limit traps the first step past it,
  // and counting pairs changes nothing but the pair table. The step
  // counts are pinned: a change to the dispatch loop must not move them.
  struct Case {
    const char *Source;
    bool Superinstructions;
    uint64_t Steps;        // StepsExecuted of a clean run
    uint64_t TrappedSteps; // summed StepsExecuted over every lower limit
  };
  const Case Cases[] = {
      {SumLoop, false, 1719, 1478340},
      {SumLoop, true, 715, 255970},
      {CallsAndFinally, false, 429, 92345},
      {CallsAndFinally, true, 275, 38040},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Superinstructions ? "fused" : "unfused");
    CompilerContext Comp;
    std::vector<SourceInput> Sources;
    Sources.push_back({"vm.scala", C.Source});
    CompileOutput Out = compile(Comp, std::move(Sources));
    ASSERT_FALSE(Out.EntryPoints.empty());
    Symbol *Entry = Out.EntryPoints.front();
    LinkOptions LO;
    LO.Superinstructions = C.Superinstructions;
    LinkedProgram Linked = linkProgram(Out.Prog, Comp, LO);
    ASSERT_TRUE(Linked.Failures.empty());

    ExecResult Clean = VM(Comp, Linked).runMain(Entry);
    ASSERT_FALSE(Clean.Uncaught) << Clean.Error;
    EXPECT_EQ(Clean.StepsExecuted, C.Steps);

    // A limit of exactly the run's steps runs clean; one less traps.
    ExecResult AtLimit = VM(Comp, Linked, Clean.StepsExecuted).runMain(Entry);
    EXPECT_TRUE(sameResult(AtLimit, Clean)) << describe(AtLimit);
    ExecResult Short =
        VM(Comp, Linked, Clean.StepsExecuted - 1).runMain(Entry);
    EXPECT_TRUE(Short.Uncaught);
    EXPECT_EQ(Short.Error, "step limit exceeded");
    EXPECT_EQ(Short.StepsExecuted, Clean.StepsExecuted);
    // Every lower limit traps; where the trap lands inside a try, the
    // unwind through its finally adds steps, so the sum pins those too.
    uint64_t TrappedSteps = 0;
    for (uint64_t Limit = 0; Limit < Clean.StepsExecuted; ++Limit) {
      ExecResult R = VM(Comp, Linked, Limit).runMain(Entry);
      EXPECT_EQ(R.Error, "step limit exceeded") << "limit " << Limit;
      TrappedSteps += R.StepsExecuted;
    }
    EXPECT_EQ(TrappedSteps, C.TrappedSteps);

    // Pair counting sees every step and does not change the result.
    VM Counting(Comp, Linked);
    Counting.enablePairCounts();
    ExecResult Counted = Counting.runMain(Entry);
    EXPECT_TRUE(sameResult(Counted, Clean)) << describe(Counted);
    uint64_t PairSum = 0;
    for (uint64_t N : Counting.pairCounts())
      PairSum += N;
    EXPECT_EQ(PairSum, Clean.StepsExecuted);
  }
}

TEST(VMDirected, ReleasedVmPagesComeBackWarm) {
  // A VM's objects live on pages from the process's page source. A
  // destroyed VM gives every page back, and the next VM runs on those
  // same pages, warm, without a fresh page from the kernel.
  const char *Source = R"(
class Cell(val v: Int, val next: Cell)
object Main {
  def main(args: Array[String]): Unit = {
    var i = 0
    var head: Cell = null
    while (i < 20000) { head = new Cell(i, head); i = i + 1 }
    println(head.v)
  }
}
)";
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", Source});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());
  Symbol *Entry = Out.EntryPoints.front();
  LinkedProgram Linked = linkProgram(Out.Prog, Comp);
  ASSERT_TRUE(Linked.Failures.empty());

  const PagePool &Pages = PagePool::global();
  auto RunOnce = [&] {
    VM M(Comp, Linked, 50'000'000);
    EXPECT_EQ(M.runMain(Entry).Output, "19999\n");
  };
  PagePool::Stats S0 = Pages.stats();
  RunOnce();
  PagePool::Stats S1 = Pages.stats();
  uint64_t Taken = (S1.PagesFresh - S0.PagesFresh) +
                   (S1.PagesWarm - S0.PagesWarm);
  EXPECT_GE(Taken, 10u); // 20,000 objects of 48 bytes
  EXPECT_LE(Taken, PagePool::MaxPages);
  EXPECT_EQ(S1.PagesPut - S0.PagesPut, Taken);
  RunOnce();
  PagePool::Stats S2 = Pages.stats();
  EXPECT_EQ(S2.PagesFresh, S1.PagesFresh);
  EXPECT_EQ(S2.PagesWarm - S1.PagesWarm, Taken);
  EXPECT_EQ(S2.PagesPut - S1.PagesPut, Taken);
}

TEST(VMDirected, RepeatedRunsAreIndependent) {
  // One VM runs main after a clean run, after a step-limit trap and after
  // an uncaught exception; each result must equal that of a fresh VM
  // making the same call after one clean warm-up run (module state is
  // per VM, so the warm-up makes the module exist in both).
  const char *Source = R"(
class Boom(val msg: String) extends Throwable
object Main {
  def spin(): Int = {
    var i = 0
    while (true) { i = i + 1 }
    i
  }
  def main(args: Array[String]): Unit = {
    println("start " + args.length)
    if (args.length > 0) {
      if (args(0) == "loop") {
        try { spin() } finally { println("unreached") }
      }
      if (args(0) == "throw") {
        try { throw new Boom("boom") } finally { print("cleanup ") }
      }
    }
    println("done " + 2.5)
  }
}
)";
  CompilerContext Comp;
  std::vector<SourceInput> Sources;
  Sources.push_back({"vm.scala", Source});
  CompileOutput Out = compile(Comp, std::move(Sources));
  ASSERT_FALSE(Out.EntryPoints.empty());
  Symbol *Entry = Out.EntryPoints.front();
  LinkedProgram Linked = linkProgram(Out.Prog, Comp);
  ASSERT_TRUE(Linked.Failures.empty());
  const uint64_t Limit = 5'000;

  const std::vector<std::vector<std::string>> Calls = {
      {}, {"loop"}, {}, {"throw"}, {}, {"loop"}, {"throw"}, {"x"}};
  VM Reused(Comp, Linked, Limit);
  for (size_t I = 0; I < Calls.size(); ++I) {
    SCOPED_TRACE("call " + std::to_string(I));
    ExecResult Got = Reused.runMain(Entry, Calls[I]);
    VM Fresh(Comp, Linked, Limit);
    if (I > 0)
      Fresh.runMain(Entry);
    ExecResult Want = Fresh.runMain(Entry, Calls[I]);
    EXPECT_TRUE(sameResult(Got, Want))
        << describe(Got) << " vs " << describe(Want);
  }

  // The three kinds of ending, as the tree-walker reports them.
  Interpreter Oracle(Comp, Out.Units, Limit);
  for (const char *Arg : {"loop", "throw"}) {
    Outcome TW = fromResult(Oracle.runMain(Entry, {Arg}));
    Outcome BV = fromResult(VM(Comp, Linked, Limit).runMain(Entry, {Arg}));
    EXPECT_EQ(TW, BV) << Arg;
    EXPECT_TRUE(BV.Uncaught) << Arg;
  }
  EXPECT_EQ(fromResult(VM(Comp, Linked, Limit).runMain(Entry)).Output,
            "start 0\ndone 2.5\n");
}

} // namespace
