#include "backend/Verifier.h"

#include <string>

using namespace mpc;

namespace {

/// Static pop/push counts for one instruction. Returns false for opcodes
/// the code generator never emits (the VM refuses them too).
bool stackEffect(const Instr &I, uint32_t &Pops, uint32_t &Pushes) {
  switch (I.Code) {
  case Op::Nop:
    Pops = 0; Pushes = 0; return true;
  case Op::ConstUnit:
  case Op::ConstBool:
  case Op::ConstInt:
  case Op::ConstDouble:
  case Op::ConstStr:
  case Op::ConstNull:
  case Op::ConstClass:
  case Op::Load:
  case Op::GetModule:
    Pops = 0; Pushes = 1; return true;
  case Op::Store:
  case Op::Pop:
    Pops = 1; Pushes = 0; return true;
  case Op::GetField:
  case Op::InstanceOf:
  case Op::CheckCast:
  case Op::NewArray:
  case Op::ArrayLength:
  case Op::Neg:
  case Op::Not:
    Pops = 1; Pushes = 1; return true;
  case Op::PutField:
    Pops = 2; Pushes = 0; return true;
  // ArgCount is the real count: CodeGen refuses a call whose arguments
  // do not fit its 16 bits rather than truncate them.
  case Op::NewObject:
    Pops = I.ArgCount; Pushes = 1; return true;
  case Op::InvokeVirt:
  case Op::InvokeSuper:
    Pops = I.ArgCount + 1; Pushes = 1; return true;
  case Op::ArrayLoad:
  case Op::Add: case Op::Sub: case Op::Mul: case Op::Div: case Op::Rem:
  case Op::CmpLt: case Op::CmpLe: case Op::CmpGt: case Op::CmpGe:
  case Op::CmpEq: case Op::CmpNe:
  case Op::Concat:
    Pops = 2; Pushes = 1; return true;
  case Op::ArrayStore:
    Pops = 3; Pushes = 0; return true;
  case Op::Jump:
    Pops = 0; Pushes = 0; return true;
  case Op::JumpIfFalse:
    Pops = 1; Pushes = 0; return true;
  case Op::AThrow:
  case Op::ReturnValue:
    Pops = 1; Pushes = 0; return true;
  case Op::Dup:
    Pops = 1; Pushes = 2; return true;
  case Op::InvokeStatic:
    return false;
  }
  return false;
}

bool isTerminal(Op Code) {
  return Code == Op::Jump || Code == Op::AThrow || Code == Op::ReturnValue;
}

} // namespace

bool mpc::verifyMethod(const MethodCode &MC,
                       std::vector<VerifyFailure> &Failures,
                       StackDepths *Depths) {
  const size_t Before = Failures.size();
  const uint32_t Size = static_cast<uint32_t>(MC.Code.size());
  auto Fail = [&](uint32_t Pc, std::string Msg) {
    Failures.push_back({MC.Method, Pc, std::move(Msg)});
  };

  if (Size == 0) {
    Fail(0, "empty method body");
    return false;
  }

  // Handler table shape first — the dataflow assumes sane ranges.
  for (const Handler &H : MC.Handlers) {
    if (H.Start >= H.End || H.End > Size)
      Fail(H.Start, "handler range [" + std::to_string(H.Start) + ", " +
                        std::to_string(H.End) + ") is malformed");
    if (H.Entry >= Size)
      Fail(H.Entry, "handler entry out of range");
    if (H.IsFinally && H.CatchType)
      Fail(H.Entry, "finally handler carries a catch type");
    if (!H.IsFinally && !H.CatchType)
      Fail(H.Entry, "typed handler without a catch type");
  }
  if (Failures.size() != Before)
    return false;

  // Worklist dataflow: depth-at-instruction must be consistent along
  // every path. -1 = not yet reached.
  std::vector<int64_t> DepthAt(Size, -1);
  std::vector<uint32_t> Work;
  uint32_t MaxStack = 0;
  auto Visit = [&](uint32_t Pc, uint32_t Depth) {
    if (DepthAt[Pc] < 0) {
      DepthAt[Pc] = Depth;
      Work.push_back(Pc);
      return;
    }
    if (DepthAt[Pc] != Depth)
      Fail(Pc, "stack depth mismatch at merge: " +
                   std::to_string(DepthAt[Pc]) + " vs " +
                   std::to_string(Depth));
  };

  Visit(0, 0);
  // Handler entries become reachable once the depth at their protected
  // range's start is known (the unwinder cuts the stack back to that
  // depth and pushes the exception). Re-seed until a fixpoint so
  // handlers inside other handlers' code are covered too.
  std::vector<bool> Seeded(MC.Handlers.size(), false);
  while (true) {
    while (!Work.empty()) {
      uint32_t Pc = Work.back();
      Work.pop_back();
      const Instr &I = MC.Code[Pc];
      uint32_t Depth = static_cast<uint32_t>(DepthAt[Pc]);
      uint32_t Pops = 0, Pushes = 0;
      if (!stackEffect(I, Pops, Pushes)) {
        Fail(Pc, "opcode is never generated and cannot execute");
        continue;
      }
      if (Depth < Pops) {
        Fail(Pc, "operand stack underflow: depth " + std::to_string(Depth) +
                     ", pops " + std::to_string(Pops));
        continue;
      }
      uint32_t After = Depth - Pops + Pushes;
      if (After > MaxStack)
        MaxStack = After;
      // Successors.
      if (I.Code == Op::Jump || I.Code == Op::JumpIfFalse) {
        if (I.Target < 0 || static_cast<uint32_t>(I.Target) >= Size) {
          Fail(Pc, "jump target " + std::to_string(I.Target) +
                       " out of range");
          continue;
        }
        Visit(static_cast<uint32_t>(I.Target), After);
      }
      if (!isTerminal(I.Code)) {
        if (Pc + 1 >= Size) {
          Fail(Pc, "control falls off the end of the method");
          continue;
        }
        Visit(Pc + 1, After);
      }
    }
    bool Progress = false;
    for (size_t H = 0; H < MC.Handlers.size(); ++H) {
      if (Seeded[H] || DepthAt[MC.Handlers[H].Start] < 0)
        continue;
      Seeded[H] = true;
      Progress = true;
      // Entry stack: everything below the try expression, plus the
      // in-flight exception.
      Visit(MC.Handlers[H].Entry,
            static_cast<uint32_t>(DepthAt[MC.Handlers[H].Start]) + 1);
    }
    if (!Progress)
      break;
  }

  if (Failures.size() != Before)
    return false;
  if (Depths) {
    Depths->MaxStack = MaxStack;
    Depths->HandlerDepth.clear();
    for (size_t H = 0; H < MC.Handlers.size(); ++H)
      Depths->HandlerDepth.push_back(
          DepthAt[MC.Handlers[H].Start] < 0
              ? 0
              : static_cast<uint32_t>(DepthAt[MC.Handlers[H].Start]));
  }
  return true;
}

std::vector<VerifyFailure> mpc::verifyProgram(const Program &Prog) {
  std::vector<VerifyFailure> Failures;
  for (const ClassFile &CF : Prog.Classes)
    for (const MethodCode &MC : CF.Methods)
      verifyMethod(MC, Failures);
  return Failures;
}
