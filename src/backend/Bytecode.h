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
/// A compile's Program is the largest thing it leaves behind (a dotty
/// 0.1 program emits about 55k instructions), so the layout is compact:
///
///   * Instr is 56 bytes, trivially copyable and trivially destructible.
///     Its one string operand is a StrRef, a pointer into the Program's
///     string pool, not an owned std::string; so a method's code is one
///     allocation that is copied with memcpy and freed with one free.
///   * CodeGen copies each method's Code, Params and Handlers out of
///     reused scratch buffers at their exact size (capacity == size).
///   * Program owns one StringPool, deduplicated by content. Its entries
///     are heap nodes that keep their addresses when the Program moves.
///     Program is move-only: a copy would hold StrRefs into the source's
///     pool, which dangle once the source dies.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BACKEND_BYTECODE_H
#define MPC_BACKEND_BYTECODE_H

#include "ast/Symbols.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
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

/// A string operand: a pointer to an entry of its Program's StringPool.
/// A default StrRef is the empty string.
class StrRef {
public:
  StrRef() = default;

  const std::string &str() const { return P ? *P : empty(); }
  operator const std::string &() const { return str(); }

  /// The pool entry's address: equal texts of one pool share it, so the
  /// linker keys its constant pool by entry instead of by text.
  const std::string *entry() const { return &str(); }

private:
  friend class StringPool;
  explicit StrRef(const std::string *P) : P(P) {}

  static const std::string &empty() {
    static const std::string Empty;
    return Empty;
  }

  const std::string *P = nullptr;
};

/// One Program's string operands, deduplicated by content. Entries are
/// hash-set nodes: neither a rehash nor a move of the set moves them, so
/// a StrRef stays valid for as long as the pool's owner lives.
class StringPool {
public:
  StrRef intern(std::string_view S) {
    auto It = Strings.find(S);
    if (It == Strings.end())
      It = Strings.emplace(S).first;
    return StrRef(&*It);
  }

  size_t size() const { return Strings.size(); }

private:
  struct Hash {
    using is_transparent = void;
    size_t operator()(std::string_view S) const noexcept {
      return std::hash<std::string_view>{}(S);
    }
  };
  std::unordered_set<std::string, Hash, std::equal_to<>> Strings;
};

/// One instruction with its immediate operands: 56 bytes, and trivially
/// destructible so a method's code is freed without per-instruction
/// destructors.
struct Instr {
  Op Code = Op::Nop;
  /// NewObject / InvokeVirt / InvokeSuper: the arguments popped (the
  /// receiver not counted). CodeGen refuses a call that does not fit.
  uint16_t ArgCount = 0;
  int32_t Target = -1;
  int64_t Imm = 0;
  double Num = 0;
  StrRef Str;
  Symbol *Sym = nullptr;
  const Type *TypeRef = nullptr;
  /// InvokeSuper only: the statically-known superclass the call
  /// dispatches into (`Super::target()` at the call site). The linker
  /// resolves super calls at link time and needs the class the symbol
  /// alone does not carry.
  ClassSymbol *SuperCls = nullptr;
};
static_assert(sizeof(Instr) <= 56, "keep a compile's bytecode compact");
static_assert(std::is_trivially_copyable_v<Instr> &&
                  std::is_trivially_destructible_v<Instr>,
              "a method's code is copied and freed as one block");

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

/// The compiled program. Move-only: its instructions' StrRefs point into
/// its own Strings pool.
struct Program {
  std::vector<ClassFile> Classes;
  std::vector<Symbol *> EntryPoints;
  StringPool Strings;

  Program() = default;
  Program(Program &&) = default;
  Program &operator=(Program &&) = default;
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  uint64_t totalInstructions() const {
    uint64_t N = 0;
    for (const ClassFile &C : Classes)
      N += C.totalInstructions();
    return N;
  }
};
static_assert(std::is_nothrow_move_constructible_v<Program> &&
                  std::is_nothrow_move_assignable_v<Program>,
              "moving a Program moves no pool entry");

} // namespace mpc

#endif // MPC_BACKEND_BYTECODE_H
