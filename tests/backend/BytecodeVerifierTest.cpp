//===----------------------------------------------------------------------===//
// Bytecode-verifier unit tests: hand-built instruction streams covering
// every rejection class (bad jump targets, fall-off-the-end, operand
// stack underflow, depth mismatches at merge points, malformed handler
// tables, never-generated opcodes), the depth facts the linker consumes
// (MaxStack, per-handler unwind depth), plus a sweep proving the real
// code generator's output always verifies.
//===----------------------------------------------------------------------===//

#include "backend/Verifier.h"
#include "driver/Driver.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

Instr mk(Op Code) {
  Instr I;
  I.Code = Code;
  return I;
}

Instr mkJump(Op Code, int32_t Target) {
  Instr I;
  I.Code = Code;
  I.Target = Target;
  return I;
}

/// Verifies a hand-built body; returns the failures.
std::vector<VerifyFailure> check(std::vector<Instr> Code,
                                 std::vector<Handler> Handlers = {},
                                 StackDepths *Depths = nullptr) {
  MethodCode MC;
  MC.Code = std::move(Code);
  MC.Handlers = std::move(Handlers);
  std::vector<VerifyFailure> Failures;
  verifyMethod(MC, Failures, Depths);
  return Failures;
}

TEST(BytecodeVerifier, CleanMethodVerifiesAndComputesMaxStack) {
  StackDepths D;
  // push, push, add, return: peak depth 2.
  auto Failures =
      check({mk(Op::ConstInt), mk(Op::ConstInt), mk(Op::Add),
             mk(Op::ReturnValue)},
            {}, &D);
  EXPECT_TRUE(Failures.empty());
  EXPECT_EQ(D.MaxStack, 2u);
}

TEST(BytecodeVerifier, EmptyBodyRejected) {
  auto Failures = check({});
  ASSERT_EQ(Failures.size(), 1u);
  EXPECT_EQ(Failures[0].Message, "empty method body");
}

TEST(BytecodeVerifier, JumpTargetOutOfRange) {
  auto Failures = check({mkJump(Op::Jump, 1000)});
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("out of range"), std::string::npos);
}

TEST(BytecodeVerifier, NegativeJumpTargetRejected) {
  auto Failures =
      check({mk(Op::ConstBool), mkJump(Op::JumpIfFalse, -1),
             mk(Op::ConstUnit), mk(Op::ReturnValue)});
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("out of range"), std::string::npos);
}

TEST(BytecodeVerifier, FallOffTheEnd) {
  auto Failures = check({mk(Op::ConstInt)});
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("falls off the end"),
            std::string::npos);
}

TEST(BytecodeVerifier, StackUnderflow) {
  // Add pops two from an empty stack.
  auto Failures = check({mk(Op::Add), mk(Op::ReturnValue)});
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("underflow"), std::string::npos);
}

TEST(BytecodeVerifier, DepthMismatchAtMergePoint) {
  // 0: ConstBool           depth 0 -> 1
  // 1: JumpIfFalse -> 3    depth 1 -> 0, branch reaches 3 at depth 0
  // 2: ConstInt            depth 0 -> 1, falls into 3 at depth 1
  // 3: ConstUnit           merge of 0 and 1: inconsistent
  // 4: ReturnValue
  auto Failures =
      check({mk(Op::ConstBool), mkJump(Op::JumpIfFalse, 3), mk(Op::ConstInt),
             mk(Op::ConstUnit), mk(Op::ReturnValue)});
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("mismatch at merge"),
            std::string::npos);
}

TEST(BytecodeVerifier, NeverGeneratedOpcodeRejected) {
  auto Failures = check({mk(Op::InvokeStatic), mk(Op::ReturnValue)});
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("never generated"), std::string::npos);
}

TEST(BytecodeVerifier, MalformedHandlerRanges) {
  std::vector<Instr> Body = {mk(Op::ConstUnit), mk(Op::ReturnValue)};

  // Start >= End.
  Handler H1;
  H1.Start = 1;
  H1.End = 1;
  H1.Entry = 0;
  H1.IsFinally = true;
  auto F1 = check(Body, {H1});
  ASSERT_FALSE(F1.empty());
  EXPECT_NE(F1[0].Message.find("malformed"), std::string::npos);

  // End beyond the method.
  Handler H2;
  H2.Start = 0;
  H2.End = 99;
  H2.Entry = 0;
  H2.IsFinally = true;
  auto F2 = check(Body, {H2});
  ASSERT_FALSE(F2.empty());
  EXPECT_NE(F2[0].Message.find("malformed"), std::string::npos);

  // Entry out of range.
  Handler H3;
  H3.Start = 0;
  H3.End = 1;
  H3.Entry = 50;
  H3.IsFinally = true;
  auto F3 = check(Body, {H3});
  ASSERT_FALSE(F3.empty());
  EXPECT_NE(F3[0].Message.find("entry out of range"), std::string::npos);
}

TEST(BytecodeVerifier, HandlerTypeShape) {
  std::vector<Instr> Body = {mk(Op::ConstUnit), mk(Op::ReturnValue),
                             mk(Op::Pop), mk(Op::ConstUnit),
                             mk(Op::ReturnValue)};
  // A typed handler must carry a catch type.
  Handler H;
  H.Start = 0;
  H.End = 1;
  H.Entry = 2;
  H.CatchType = nullptr;
  H.IsFinally = false;
  auto Failures = check(Body, {H});
  ASSERT_FALSE(Failures.empty());
  EXPECT_NE(Failures[0].Message.find("without a catch type"),
            std::string::npos);
}

TEST(BytecodeVerifier, HandlerEntrySeededWithExceptionOnStack) {
  // Protected range starts at depth 0; the handler entry must therefore
  // verify at depth 1 (the in-flight exception) — Pop then return.
  std::vector<Instr> Body = {
      mk(Op::ConstUnit),      // 0: try body
      mk(Op::ReturnValue),    // 1
      mk(Op::Pop),            // 2: handler entry (pops the exception)
      mk(Op::ConstUnit),      // 3
      mk(Op::ReturnValue),    // 4
  };
  Handler H;
  H.Start = 0;
  H.End = 1;
  H.Entry = 2;
  H.IsFinally = true;
  StackDepths D;
  auto Failures = check(Body, {H}, &D);
  EXPECT_TRUE(Failures.empty())
      << (Failures.empty() ? "" : Failures[0].Message);
  ASSERT_EQ(D.HandlerDepth.size(), 1u);
  EXPECT_EQ(D.HandlerDepth[0], 0u);
}

TEST(BytecodeVerifier, LoopWithConsistentDepthVerifies) {
  // 0: ConstBool; 1: JumpIfFalse -> 4; 2: Nop; 3: Jump -> 0;
  // 4: ConstUnit; 5: ReturnValue — a while loop shape.
  StackDepths D;
  auto Failures =
      check({mk(Op::ConstBool), mkJump(Op::JumpIfFalse, 4), mk(Op::Nop),
             mkJump(Op::Jump, 0), mk(Op::ConstUnit), mk(Op::ReturnValue)},
            {}, &D);
  EXPECT_TRUE(Failures.empty());
  EXPECT_EQ(D.MaxStack, 1u);
}

// The real code generator's output must always verify: a family/seed
// sweep through the full pipeline with the verifier on.
TEST(BytecodeVerifier, GeneratedProgramsAlwaysVerify) {
  for (Family F : allFamilies()) {
    if (!familyIsValid(F))
      continue;
    for (uint64_t Seed : {0u, 7u, 13u}) {
      CompilerContext Comp;
      CompileOutput Out = compileProgram(Comp, generateFamily(F, Seed, 0.2),
                                         PipelineKind::StandardFused);
      ASSERT_FALSE(Comp.diags().hasErrors())
          << familyName(F) << " seed " << Seed;
      std::vector<VerifyFailure> Failures = verifyProgram(Out.Prog);
      EXPECT_TRUE(Failures.empty())
          << familyName(F) << " seed " << Seed << ": "
          << (Failures.empty() ? "" : Failures.front().Message);
    }
  }
}

} // namespace
