//===----------------------------------------------------------------------===//
///
/// \file
/// The link/resolve pass between CodeGen's symbolic bytecode and the VM.
/// Symbolic operands become dense indices so the execution loop never
/// touches a map:
///
///   * Load/Store/param Symbols  -> frame slot numbers (slot 0 = this,
///     then params, then locals in first-use order),
///   * GetField/PutField Symbols -> per-class object-layout slots behind
///     a monomorphic inline cache (FieldSite),
///   * InvokeVirt Symbols        -> per-class method tables keyed by name
///     ordinal behind a monomorphic inline cache (CallSite),
///   * InvokeSuper               -> the target method itself (resolved
///     statically from Instr::SuperCls),
///   * intrinsic Symbols (prim ops, println/print, Runtime.equals,
///     String.length, Object ==/equals/!=/toString/getClass) -> dedicated
///     opcodes, mirroring the tree interpreter's dispatch order exactly.
///
/// The linker also fuses measured hot opcode pairs into superinstructions
/// (never across a jump target or handler boundary) and computes, via the
/// verifier, each method's operand-stack bound and the depth every
/// exception handler unwinds to.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_BACKEND_LINKER_H
#define MPC_BACKEND_LINKER_H

#include "backend/Bytecode.h"
#include "support/FlatPtrMap.h"

#include <memory>
#include <string_view>

namespace mpc {

class CompilerContext;
struct LClass;
struct LMethod;

/// Linked opcodes. The base set mirrors Op with operands resolved; the
/// trailing block holds the measured superinstructions (see the fusion
/// table in Linker.cpp and the README for the measurements that chose
/// them).
enum class LOp : uint8_t {
  Nop,
  ConstUnit,
  ConstBool,   // Imm.I (0/1)
  ConstInt,    // Imm.I
  ConstDouble, // Imm.D
  ConstStr,    // Imm.P = const VMString* (pooled)
  ConstNull,
  ConstClass, // Imm.P = const Type*
  LoadSlot,   // A = slot
  StoreSlot,  // A = slot
  LoadSelfField,  // A = field site (implicit receiver = slot 0)
  StoreSelfField, // A = field site
  GetField,       // A = field site
  PutField,       // A = field site
  GetModule,      // A = class index
  NewObject,      // A = class index, B = argc
  NewBuiltin,     // A = class index, B = argc (Throwable/Ref-box shapes)
  InvokeVirt,     // A = call site, B = argc
  InvokeSuperM,   // Imm.P = const LMethod*, B = argc
  InvokeSuperUnit,// B = argc (builtin or absent super ctor: pop, push unit)
  InstanceOf,     // Imm.P = const Type*
  CheckCast,      // Imm.P = const Type*
  NewArray,       // Imm.P = const Type* (elem), B = DefaultKind
  ArrayLoad,
  ArrayStore,
  ArrayLength,
  ArrUpdateV, // Array.update via invoke: store, then push unit
  Add, Sub, Mul, Div, Rem, Neg,
  CmpLt, CmpLe, CmpGt, CmpGe, CmpEq, CmpNe,
  Not,
  Concat,
  PrimOpEager, // A = PrimOpKind, B = argc (&&/|| survivors: eager, like
               // the interpreter's primOp on an already-evaluated pair)
  StrLen,
  RuntimeEq, // pops [module, a, b]
  Println,   // pops [module, a]
  Print,
  ValueEq, // Object.== / equals on arbitrary values
  ValueNe,
  ValueToString,
  GetClassV,
  Jump,        // A = target
  JumpIfFalse, // A = target
  AThrow,
  ReturnValue,
  Pop,
  Dup,
  LinkError, // Imm.P = const VMString* (message); raises a VM error
  // Superinstructions (fused pairs; picked from measured pair counts).
  LoadLoad,     // A = slot1, B = slot2
  LoadConstInt, // A = slot, Imm.I
  LoadGetField, // B = slot, A = field site
  CmpLtJF, CmpLeJF, CmpGtJF, CmpGeJF, CmpEqJF, CmpNeJF, // A = target
  // Second-order fusions (the fuse pass runs twice, so pairs whose
  // first half is itself a superinstruction can fuse again). All picked
  // from measured dynamic pair counts — see README "Bytecode VM".
  AddStore, SubStore, // A = store slot (arith result straight to a local)
  LoadConstAdd, LoadConstSub, LoadConstMul, LoadConstDiv,
  LoadConstRem, // A = load slot, Imm.I = int constant
  NumLOps,
};

/// What a cell of the VM heap is. Every cell starts with its tag, so the
/// collector (VM.cpp) can walk a page cell by cell and tell a moved cell
/// from a live one. ConstString marks the linker's pooled strings, which
/// live outside the heap and are never moved.
enum class CellTag : uint32_t { Object, Array, String, ConstString, Forwarded };

/// An immutable string: a 16-byte header, then Len bytes in place. The
/// VM's heap strings and the linker's pooled ConstStr constants share
/// this layout, so a string value is one pointer whoever made it.
struct VMString {
  CellTag Tag;
  uint32_t Pad;
  uint64_t Len;
  const char *data() const { return reinterpret_cast<const char *>(this + 1); }
  std::string_view view() const { return {data(), Len}; }
};
static_assert(sizeof(VMString) == 16, "string bytes start 16-byte aligned");

/// Printable opcode name (stats keys, bench output).
const char *lopName(LOp Code);

/// One linked instruction: 24 bytes, operands inline or as indices into
/// the per-program side tables. H caches the dispatch label address for
/// direct threading (filled by the VM on first execution).
struct LInstr {
  const void *H = nullptr;
  union {
    int64_t I;
    double D;
    const void *P;
  } Imm = {0};
  uint32_t A = 0;
  uint16_t B = 0;
  LOp Code = LOp::Nop;
  uint8_t Pad = 0;
};
static_assert(sizeof(LInstr) == 24, "keep the dispatch loop's stride flat");

/// Monomorphic inline cache for a virtual call site.
struct CallSite {
  Symbol *Sym = nullptr;
  uint32_t NameOrd = 0;
  /// Routing class of the *name* for non-object receivers (the
  /// interpreter compares name text; we compare once at link time).
  enum NameClass : uint8_t { Plain, IsToString, IsEquals, IsBangEq };
  NameClass NC = Plain;
  const LClass *CachedCls = nullptr;
  const LMethod *CachedM = nullptr;
};

/// Monomorphic inline cache for a field access site.
struct FieldSite {
  Symbol *Sym = nullptr;
  uint32_t NameOrd = 0;
  const LClass *CachedCls = nullptr;
  uint32_t CachedSlot = 0;
};

/// Default value of a slot/array element, precomputed from its type.
enum class DefaultKind : uint8_t { Null, Int0, False, Dbl0, Unit };

/// One linked exception-handler entry.
struct LHandler {
  uint32_t Start = 0;
  uint32_t End = 0;
  uint32_t Entry = 0;
  const Type *CatchType = nullptr;
  bool IsFinally = false;
  /// Operand depth at Start: an unwind cuts the stack back here before
  /// pushing the in-flight exception (try can sit mid-expression).
  uint32_t Depth = 0;
};

/// One linked method.
struct LMethod {
  Symbol *Sym = nullptr;
  LClass *Owner = nullptr;
  uint32_t NumParams = 0;
  uint32_t NumSlots = 0; // this + params + locals
  uint32_t MaxStack = 0;
  std::vector<LInstr> Code;
  std::vector<LHandler> Handlers;
  /// DefaultKind per local slot (index 0 = slot NumParams+1).
  std::vector<DefaultKind> LocalDefaults;
};

/// One linked class: object layout, method table, metadata the VM's
/// equality/show/conforms mirrors need.
struct LClass {
  ClassSymbol *Cls = nullptr;
  uint32_t Index = 0; // position in LinkedProgram::Classes
  bool Builtin = false;
  bool IsCase = false;
  bool IsThrowable = false; // derives from Throwable
  /// Object layout, interpreter InitFields order: own declared fields
  /// first, then parents depth-first (first occurrence wins).
  std::vector<Symbol *> FieldSyms;
  std::vector<DefaultKind> FieldDefaults;
  FlatPtrMap<Symbol *, uint32_t> FieldSlotBySym; // sym -> slot + 1
  FlatOrdMap<uint32_t> FieldSlotByName;          // name ord -> slot + 1
  /// Virtual method table: name ordinal -> implementation, subclass
  /// first over the non-trait super chain (findMethod's walk, hoisted
  /// to link time).
  FlatOrdMap<LMethod *> Methods;
  LMethod *Ctor = nullptr; // declared ctor of this class only
  /// Per caseFields() entry: layout slot, or -1 (missing -> null).
  std::vector<int32_t> CaseFieldSlots;
  /// Layout slot holding the Throwable message, or -1.
  int32_t MsgSlot = -1;
};

/// Linking knobs.
struct LinkOptions {
  /// Fuse the measured superinstruction pairs (off to measure base-op
  /// pair frequencies or to differential-test the fusion itself).
  bool Superinstructions = true;
};

/// The linked program: everything the VM executes, with stable addresses
/// (unique_ptrs) so inline caches and Imm.P pointers stay valid.
struct LinkedProgram {
  std::vector<std::unique_ptr<LClass>> Classes;
  std::vector<std::unique_ptr<LMethod>> Methods;
  FlatPtrMap<ClassSymbol *, LClass *> ClassBySym;
  /// ConstStr and LinkError payloads, each a VMString tagged ConstString
  /// followed by its bytes: one block per Program pool entry a ConstStr
  /// names, and one per LinkError.
  std::vector<std::unique_ptr<char[]>> StrPool;
  std::vector<CallSite> CallSites;
  std::vector<FieldSite> FieldSites;
  /// Verifier findings for methods that failed to link (the VM refuses
  /// to run a program with a non-empty list).
  std::vector<VerifyFailure> Failures;
  /// True once a VM pass has filled LInstr::H with dispatch labels.
  bool Threaded = false;

  uint64_t totalInstructions() const {
    uint64_t N = 0;
    for (const auto &M : Methods)
      N += M->Code.size();
    return N;
  }
};

/// Links \p Prog against the context's symbol/type world. Verifies every
/// method first (failures land in LinkedProgram::Failures) and bumps
/// backend.link.* counters in the context's stats.
LinkedProgram linkProgram(const Program &Prog, CompilerContext &Comp,
                          const LinkOptions &Opts = {});

} // namespace mpc

#endif // MPC_BACKEND_LINKER_H
