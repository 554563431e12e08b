//===----------------------------------------------------------------------===//
///
/// \file
/// A compact stack-machine bytecode (the GenBCode analogue). The code
/// generator lowers the fully transformed trees into this form; the
/// bytecode is the compiler's final product and its size/shape is checked
/// by tests. linkProgram (Linker.h) verifies and links it for the VM;
/// the tree-walking Interpreter runs the lowered trees as the oracle the
/// VM must match.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BACKEND_BYTECODE_H
#define MPC_BACKEND_BYTECODE_H

#include "ast/Symbols.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mpc {

/// Operation codes of the MiniScala VM.
enum class Op : uint8_t {
  Nop,
  // Constants.
  ConstUnit,
  ConstBool,   // operand: Imm (0/1) — kept distinct from ConstInt: the
               // runtime value kinds differ (show/equality observe it)
  ConstInt,    // operand: Imm
  ConstDouble, // operand: Num
  ConstStr,    // operand: Str
  ConstNull,
  ConstClass, // operand: TypeRef
  // Locals.
  Load,  // operand: Sym (local/param)
  Store, // operand: Sym
  // Fields.
  GetField, // operand: Sym
  PutField, // operand: Sym
  // Objects.
  NewObject,   // operand: Sym (class)
  InvokeVirt,  // operand: Sym (method), ArgCount
  InvokeSuper, // operand: Sym
  InvokeStatic,// operand: Sym (module method)
  GetModule,   // operand: Sym (module class)
  InstanceOf,  // operand: TypeRef
  CheckCast,   // operand: TypeRef
  // Arrays.
  NewArray,    // operand: TypeRef (elem)
  ArrayLoad,
  ArrayStore,
  ArrayLength,
  // Arithmetic & logic (operate on operand-stack values).
  Add, Sub, Mul, Div, Rem, Neg,
  CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe,
  Not,
  Concat, // string concatenation
  // Control flow.
  Jump,        // operand: Target (instruction index)
  JumpIfFalse, // operand: Target
  AThrow,
  ReturnValue,
  Pop,
  Dup,
};

/// One instruction with its immediate operands.
struct Instr {
  Op Code = Op::Nop;
  int64_t Imm = 0;
  double Num = 0;
  std::string Str;
  Symbol *Sym = nullptr;
  const Type *TypeRef = nullptr;
  /// InvokeSuper only: the statically-known superclass the call
  /// dispatches into (`Super::target()` at the call site). The linker
  /// resolves super calls at link time and needs the class the symbol
  /// alone does not carry.
  ClassSymbol *SuperCls = nullptr;
  int32_t Target = -1;
  uint32_t ArgCount = 0;
};

/// Exception-handler table entry: [Start, End) protected range.
struct Handler {
  uint32_t Start = 0;
  uint32_t End = 0;
  uint32_t Entry = 0;
  const Type *CatchType = nullptr;
  /// A finally route: catches *everything* thrown in the range, runs the
  /// finalizer block at Entry, and rethrows (the block ends in AThrow).
  /// CatchType is null for these entries.
  bool IsFinally = false;
};

/// One compiled method.
struct MethodCode {
  Symbol *Method = nullptr;
  std::vector<Symbol *> Params;
  std::vector<Instr> Code;
  std::vector<Handler> Handlers;
  uint32_t MaxLocals = 0;
};

/// One compiled class.
struct ClassFile {
  ClassSymbol *Cls = nullptr;
  std::vector<Symbol *> Fields;
  std::vector<MethodCode> Methods;

  uint64_t totalInstructions() const {
    uint64_t N = 0;
    for (const MethodCode &M : Methods)
      N += M.Code.size();
    return N;
  }
};

/// One bytecode-verifier diagnostic (produced by backend/Verifier.h and
/// collected on LinkedProgram::Failures, so callers see structural
/// codegen bugs as typed failures instead of VM crashes).
struct VerifyFailure {
  Symbol *Method = nullptr;
  uint32_t Pc = 0;
  std::string Message;
};

/// The compiled program.
struct Program {
  std::vector<ClassFile> Classes;
  std::vector<Symbol *> EntryPoints;

  uint64_t totalInstructions() const {
    uint64_t N = 0;
    for (const ClassFile &C : Classes)
      N += C.totalInstructions();
    return N;
  }
};

} // namespace mpc

#endif // MPC_BACKEND_BYTECODE_H
