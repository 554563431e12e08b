//===----------------------------------------------------------------------===//
///
/// \file
/// The direct-threaded VM. One contiguous value stack holds every frame's
/// slots (0 = this, then params, then locals) followed by its operand
/// stack; calls are a frame push on the same stack, so the receiver and
/// arguments are never copied. Virtual calls and field accesses go
/// through the monomorphic inline caches the linker allocated
/// (CallSite/FieldSite); a cache hit is one pointer compare.
///
/// Semantics are the tree interpreter's, bit for bit — every error
/// string, every evaluation-order quirk the bytecode preserves, the
/// show/equals/conforms mirrors. Where the two engines cannot agree
/// (documented at the relevant opcode), the differential suite pins the
/// actual behavior.
///
/// Error unwinding has two modes. Guest exceptions (`throw` in the
/// program) unwind through typed catch handlers and finally routes using
/// `conforms`. VM-level errors (the InterpError analogue: step limit,
/// missing member, bad receiver) unwind through *finally routes only*,
/// pushing an ErrToken sentinel in place of an exception value; when the
/// finalizer's closing AThrow pops the token, the error unwind resumes
/// with the message parked in PendingError. A real guest throw inside the
/// finalizer replaces the error, exactly like a C++ exception thrown from
/// a catch-all block.
///
//===----------------------------------------------------------------------===//

#include "backend/VM.h"

#include "ast/Types.h"

#include <cmath>
#include <cstring>
#include <deque>
#include <new>
#include <sstream>

using namespace mpc;

namespace {

struct VMObj;
struct VMArr;

/// A flat tagged value: one kind byte and one 8-byte payload. The tree
/// interpreter carries separate I/D/S fields per value (so e.g. `V.I` of
/// a Double reads a never-written zero); the helpers below (truthy /
/// intOf / numOf) reproduce those reads against the union.
struct VMValue {
  enum K : uint8_t {
    Unit,
    Bool,
    Int,
    Dbl,
    Str,
    Null,
    Obj,
    Arr,
    Clazz,
    /// Sentinel pushed by the error unwinder in place of an exception
    /// value when routing a VM error through a finally block. Never
    /// observable by guest code: only AThrow inspects it.
    ErrToken,
  };
  K Kind;
  union {
    int64_t I;
    double D;
    const std::string *S;
    VMObj *O;
    VMArr *A;
    const Type *Cl;
  };
  VMValue() : Kind(Unit), I(0) {}
};

/// Heap object: class pointer, presence count, then the layout's field
/// values in place. NumFields mirrors the interpreter's per-object field
/// *map*: a builtin shell constructed with no arguments has an empty map
/// (reads fail), even though the layout reserves the payload slot.
/// Declared classes are always fully present.
struct VMObj {
  LClass *Cls;
  uint32_t NumFields;
  VMValue *fields() { return reinterpret_cast<VMValue *>(this + 1); }
};

/// Heap array: length then the elements in place.
struct VMArr {
  int64_t Len;
  VMValue *elems() { return reinterpret_cast<VMValue *>(this + 1); }
};

/// Chunked bump allocator for objects and arrays. Guest programs are
/// bounded by the step limit, so the run's allocations simply live until
/// the VM is destroyed; no collector.
class VMArena {
public:
  void *alloc(size_t Bytes) {
    Bytes = (Bytes + 15) & ~size_t(15);
    if (Bytes > ChunkBytes) {
      Chunks.push_back(std::make_unique<char[]>(Bytes));
      Used = ChunkBytes; // mark the oversized chunk full
      return Chunks.back().get();
    }
    if (Used + Bytes > ChunkBytes) {
      Chunks.push_back(std::make_unique<char[]>(ChunkBytes));
      Used = 0;
    }
    void *P = Chunks.back().get() + Used;
    Used += Bytes;
    return P;
  }

private:
  static constexpr size_t ChunkBytes = 1 << 20;
  std::vector<std::unique_ptr<char[]>> Chunks;
  size_t Used = ChunkBytes;
};

VMValue vBool(bool B) {
  VMValue V;
  V.Kind = VMValue::Bool;
  V.I = B;
  return V;
}
VMValue vInt(int64_t N) {
  VMValue V;
  V.Kind = VMValue::Int;
  V.I = N;
  return V;
}
VMValue vDbl(double N) {
  VMValue V;
  V.Kind = VMValue::Dbl;
  V.D = N;
  return V;
}
VMValue vStr(const std::string *S) {
  VMValue V;
  V.Kind = VMValue::Str;
  V.S = S;
  return V;
}
VMValue vNull() {
  VMValue V;
  V.Kind = VMValue::Null;
  return V;
}
VMValue vObj(VMObj *O) {
  VMValue V;
  V.Kind = VMValue::Obj;
  V.O = O;
  return V;
}
VMValue vArr(VMArr *A) {
  VMValue V;
  V.Kind = VMValue::Arr;
  V.A = A;
  return V;
}
VMValue vClazz(const Type *Cl) {
  VMValue V;
  V.Kind = VMValue::Clazz;
  V.Cl = Cl;
  return V;
}

VMValue defaultOf(DefaultKind K) {
  switch (K) {
  case DefaultKind::Int0:
    return vInt(0);
  case DefaultKind::False:
    return vBool(false);
  case DefaultKind::Dbl0:
    return vDbl(0);
  case DefaultKind::Unit:
    return VMValue();
  case DefaultKind::Null:
    break;
  }
  return vNull();
}

/// One call frame. Base indexes slot 0 (this) on the shared value stack;
/// the operand stack starts at StackBase = Base + NumSlots.
struct VMFrame {
  const LMethod *M;
  uint32_t Pc;
  uint32_t Base;
  uint32_t StackBase;
  uint8_t Flags;
};
/// Constructor frames: discard the callee's result on return and leave
/// the freshly built object (stashed just below Base) on top instead.
constexpr uint8_t FrameDropResult = 1;

} // namespace

class VM::Impl {
public:
  Impl(CompilerContext &Comp, LinkedProgram &Linked, uint64_t StepLimit)
      : Comp(Comp), LP(Linked), StepLimit(StepLimit) {
    for (const auto &C : LP.Classes)
      ClassAt.push_back(C.get());
    Modules.resize(ClassAt.size());
    ModuleReady.assign(ClassAt.size(), 0);
    std::memset(OpCount, 0, sizeof(OpCount));
    // Resolve the stats-registry slots once: finish() runs after every
    // runMain, and repeated executions (bench loops, warmed services)
    // must not pay a map-of-strings walk per guest run. References into
    // the registry stay valid for the VM's lifetime (the context is only
    // reset between jobs, never while a VM is live).
    StatsRegistry &S = Comp.stats();
    StepsC = &S.counter("backend.vm.steps");
    for (size_t I = 0; I < static_cast<size_t>(LOp::NumLOps); ++I)
      DispatchC[I] = &S.counter(std::string("backend.vm.dispatch.") +
                                lopName(static_cast<LOp>(I)));
    CallHitsC = &S.counter("backend.vm.ic.call.hits");
    CallMissesC = &S.counter("backend.vm.ic.call.misses");
    FieldHitsC = &S.counter("backend.vm.ic.field.hits");
    FieldMissesC = &S.counter("backend.vm.ic.field.misses");
    FramesC = &S.counter("backend.vm.frames");
    ObjAllocsC = &S.counter("backend.vm.alloc.objects");
    ArrAllocsC = &S.counter("backend.vm.alloc.arrays");
  }

  ExecResult runMain(Symbol *Entry, const std::vector<std::string> &Args) {
    Res = ExecResult();
    Output.clear();
    Steps = 0;
    resetCounters();
    Frames.clear();
    Sp = 0;
    PendingError.clear();

    if (!LP.Failures.empty()) {
      Res.Uncaught = true;
      Res.Error =
          "bytecode verification failed: " + LP.Failures.front().Message;
      return finish();
    }

    auto *OwnerCls = cast<ClassSymbol>(Entry->owner());
    LClass **LCp = LP.ClassBySym.find(OwnerCls);
    LClass *LC = LCp ? *LCp : nullptr;

    // Module instance of the entry point's owner, constructor included
    // (the lazy GetModule path would do the same on first touch).
    VMValue ModV;
    if (LC && !ModuleReady[LC->Index]) {
      ModV = vObj(allocObj(LC));
      Modules[LC->Index] = ModV;
      ModuleReady[LC->Index] = 1;
      if (LC->Ctor) {
        if (LC->Ctor->NumParams != 0) {
          Res.Uncaught = true;
          Res.Error = "arity mismatch calling " + LC->Ctor->Sym->name().str();
          return finish();
        }
        ensureStack(8);
        Sp = 0;
        Stack[Sp++] = ModV; // result (kept by FrameDropResult)
        Stack[Sp++] = ModV; // receiver = slot 0
        pushFrame(LC->Ctor, 1, FrameDropResult);
        if (!run())
          return finish();
      }
    } else if (LC) {
      ModV = Modules[LC->Index];
    }

    // Entry lookup by name, like the interpreter's findMethod walk
    // (hoisted into the linked method table).
    LMethod **Mp = LC ? LC->Methods.find(Entry->name().ordinal()) : nullptr;
    if (!Mp) {
      Res.Uncaught = true;
      Res.Error = "no implementation of " + Entry->name().str() + " in " +
                  OwnerCls->name().str();
      return finish();
    }
    LMethod *M = *Mp;
    if (M->NumParams != 1) {
      Res.Uncaught = true;
      Res.Error = "arity mismatch calling " + M->Sym->name().str();
      return finish();
    }

    VMArr *ArgArr = allocArr(static_cast<int64_t>(Args.size()));
    for (size_t I = 0; I < Args.size(); ++I)
      ArgArr->elems()[I] = vStr(internStr(Args[I]));

    ensureStack(8);
    Sp = 0;
    Stack[Sp++] = ModV;
    Stack[Sp++] = vArr(ArgArr);
    pushFrame(M, 0, 0);
    run();
    return finish();
  }

  void enablePairCounts() {
    PairsOn = true;
    const size_t N = static_cast<size_t>(LOp::NumLOps);
    Pairs.assign(N * N, 0);
  }
  const std::vector<uint64_t> &pairCounts() const { return Pairs; }

private:
  //===--- heap -----------------------------------------------------------===//

  const std::string *internStr(std::string S) {
    StrHeap.push_back(std::move(S));
    return &StrHeap.back();
  }

  VMObj *allocObj(LClass *LC) {
    const size_t N = LC->FieldSyms.size();
    auto *O =
        static_cast<VMObj *>(Arena.alloc(sizeof(VMObj) + N * sizeof(VMValue)));
    O->Cls = LC;
    // Builtins start with an *empty* field map like the interpreter's
    // builtinNew; the payload slot only becomes present when the
    // constructor argument lands (NewBuiltin) or a store reaches it.
    O->NumFields = LC->Builtin ? 0 : static_cast<uint32_t>(N);
    VMValue *F = O->fields();
    for (size_t I = 0; I < N; ++I)
      F[I] = defaultOf(LC->FieldDefaults[I]);
    ++ObjAllocs;
    return O;
  }

  VMArr *allocArr(int64_t Len, DefaultKind DK = DefaultKind::Null) {
    // Negative or absurd lengths die the way the interpreter's
    // vector::assign(size_t(Len)) does: an allocation failure, not a
    // guest-visible exception.
    if (Len < 0 || static_cast<uint64_t>(Len) > (uint64_t(1) << 31))
      throw std::bad_alloc();
    auto *A = static_cast<VMArr *>(
        Arena.alloc(sizeof(VMArr) + static_cast<size_t>(Len) * sizeof(VMValue)));
    A->Len = Len;
    VMValue D = defaultOf(DK);
    for (int64_t I = 0; I < Len; ++I)
      A->elems()[I] = D;
    ++ArrAllocs;
    return A;
  }

  VMValue makeError(const std::string &Msg) {
    LClass **TP = LP.ClassBySym.find(Comp.syms().throwableClass());
    LClass *LC = *TP; // the linker always materializes Throwable
    VMObj *O = allocObj(LC);
    if (LC->MsgSlot >= 0) {
      O->fields()[LC->MsgSlot] = vStr(internStr(Msg));
      O->NumFields = static_cast<uint32_t>(LC->MsgSlot) + 1;
    }
    return vObj(O);
  }

  //===--- value mirrors (interpreter-exact) ------------------------------===//

  /// The interpreter's Value keeps I alongside D/S/O, so `truthy()`
  /// (I != 0) is false for every kind that never writes I. Same for the
  /// int and double reads below.
  static bool truthy(const VMValue &V) {
    return (V.Kind == VMValue::Bool || V.Kind == VMValue::Int) && V.I != 0;
  }
  static int64_t intOf(const VMValue &V) {
    return (V.Kind == VMValue::Bool || V.Kind == VMValue::Int) ? V.I : 0;
  }
  static double numOf(const VMValue &V) {
    return V.Kind == VMValue::Dbl ? V.D : static_cast<double>(intOf(V));
  }
  /// Int results wrap at 32 bits like JVM ints (interpreter's wrap32).
  static int64_t wrap32(int64_t V) { return static_cast<int32_t>(V); }

  static VMValue caseSlotValue(VMObj *O, int32_t Slot) {
    if (Slot < 0 || static_cast<uint32_t>(Slot) >= O->NumFields)
      return vNull();
    return O->fields()[Slot];
  }

  bool conforms(const VMValue &V, const Type *Ty) {
    if (!Ty || Ty->isAny())
      return true;
    switch (Ty->kind()) {
    case TypeKind::Primitive:
      switch (cast<PrimitiveType>(Ty)->prim()) {
      case PrimKind::Int:
        return V.Kind == VMValue::Int;
      case PrimKind::Boolean:
        return V.Kind == VMValue::Bool;
      case PrimKind::Double:
        return V.Kind == VMValue::Dbl || V.Kind == VMValue::Int;
      case PrimKind::Unit:
        return V.Kind == VMValue::Unit;
      case PrimKind::Null:
        return V.Kind == VMValue::Null;
      default:
        return true;
      }
    case TypeKind::Class: {
      ClassSymbol *Cls = cast<ClassType>(Ty)->cls();
      if (V.Kind == VMValue::Null)
        return true; // null conforms to reference types
      if (Cls == Comp.syms().objectClass())
        return true;
      if (V.Kind == VMValue::Str)
        return Cls == Comp.syms().stringClass();
      if (V.Kind == VMValue::Obj)
        return V.O->Cls->Cls->derivesFrom(Cls);
      if (V.Kind == VMValue::Arr || V.Kind == VMValue::Clazz)
        return Cls == Comp.syms().objectClass();
      return false;
    }
    case TypeKind::Array:
      return V.Kind == VMValue::Arr || V.Kind == VMValue::Null;
    default:
      return true;
    }
  }

  bool valueEquals(const VMValue &A, const VMValue &B) {
    if (A.Kind == VMValue::Null || B.Kind == VMValue::Null)
      return A.Kind == B.Kind;
    const bool ANum = A.Kind == VMValue::Int || A.Kind == VMValue::Dbl;
    const bool BNum = B.Kind == VMValue::Int || B.Kind == VMValue::Dbl;
    if (ANum && BNum) {
      if (A.Kind == VMValue::Int && B.Kind == VMValue::Int)
        return A.I == B.I;
      return numOf(A) == numOf(B);
    }
    if (A.Kind != B.Kind)
      return false;
    switch (A.Kind) {
    case VMValue::Unit:
      return true;
    case VMValue::Bool:
      return A.I == B.I;
    case VMValue::Str:
      return *A.S == *B.S;
    case VMValue::Clazz: {
      // Class literals compare erased, like the JVM.
      const auto *CA = dyn_cast<ClassType>(A.Cl);
      const auto *CB = dyn_cast<ClassType>(B.Cl);
      if (CA && CB)
        return CA->cls() == CB->cls();
      return A.Cl == B.Cl;
    }
    case VMValue::Arr:
      return A.A == B.A;
    case VMValue::Obj: {
      if (A.O == B.O)
        return true;
      // Case classes compare structurally over the precomputed slots.
      LClass *C = A.O->Cls;
      if (C == B.O->Cls && C->IsCase) {
        for (int32_t Slot : C->CaseFieldSlots)
          if (!valueEquals(caseSlotValue(A.O, Slot),
                           caseSlotValue(B.O, Slot)))
            return false;
        return true;
      }
      return false;
    }
    default:
      return false;
    }
  }

  VMValue classValueOf(const VMValue &V) {
    if (V.Kind == VMValue::Obj)
      return vClazz(Comp.types().classType(V.O->Cls->Cls));
    if (V.Kind == VMValue::Str)
      return vClazz(Comp.syms().stringType());
    return vClazz(Comp.syms().objectType());
  }

  std::string show(const VMValue &V) {
    switch (V.Kind) {
    case VMValue::Unit:
      return "()";
    case VMValue::Bool:
      return V.I ? "true" : "false";
    case VMValue::Int:
      return std::to_string(V.I);
    case VMValue::Dbl: {
      std::ostringstream OS;
      OS << V.D;
      return OS.str();
    }
    case VMValue::Str:
      return *V.S;
    case VMValue::Null:
      return "null";
    case VMValue::Clazz:
      return "class " + V.Cl->show();
    case VMValue::Arr: {
      std::string S = "Array(";
      for (int64_t I = 0; I < V.A->Len; ++I) {
        if (I)
          S += ", ";
        S += show(V.A->elems()[I]);
      }
      return S + ")";
    }
    case VMValue::Obj: {
      LClass *C = V.O->Cls;
      if (C->IsCase) {
        std::string S(C->Cls->name().text());
        S += "(";
        bool First = true;
        for (int32_t Slot : C->CaseFieldSlots) {
          if (!First)
            S += ", ";
          First = false;
          S += show(caseSlotValue(V.O, Slot));
        }
        return S + ")";
      }
      if (C->IsThrowable) {
        std::string S(C->Cls->name().text());
        VMValue Msg = caseSlotValue(V.O, C->MsgSlot);
        if (Msg.Kind == VMValue::Str)
          S += "(" + *Msg.S + ")";
        return S;
      }
      return std::string(C->Cls->name().text()) + "@instance";
    }
    default:
      return "?";
    }
  }

  //===--- frames & unwinding ---------------------------------------------===//

  void ensureStack(size_t Need) {
    if (Stack.size() < Need)
      Stack.resize(Need + 256);
  }

  void pushFrame(const LMethod *M, uint32_t Base, uint8_t Flags) {
    ensureStack(static_cast<size_t>(Base) + M->NumSlots + M->MaxStack + 8);
    // Locals (slots after this+params) start at their type's default.
    VMValue *Slots = Stack.data() + Base;
    const uint32_t FirstLocal = 1 + M->NumParams;
    for (size_t I = 0; I < M->LocalDefaults.size(); ++I)
      Slots[FirstLocal + I] = defaultOf(M->LocalDefaults[I]);
    Sp = Base + M->NumSlots;
    Frames.push_back({M, 0, Base, Sp, Flags});
    ++FramesPushed;
  }

  /// Unwinds a guest exception: typed handlers match by conforms, finally
  /// routes match everything. Returns false when it escapes main.
  bool unwindGuest(const VMValue &Exn) {
    PendingError.clear(); // a real throw replaces an in-flight VM error
    while (!Frames.empty()) {
      VMFrame &F = Frames.back();
      const uint32_t At = F.Pc - 1;
      for (const LHandler &H : F.M->Handlers) {
        if (At < H.Start || At >= H.End)
          continue;
        if (!H.IsFinally && !conforms(Exn, H.CatchType))
          continue;
        Sp = F.StackBase + H.Depth;
        Stack[Sp++] = Exn;
        F.Pc = H.Entry;
        return true;
      }
      Sp = F.Base;
      Frames.pop_back();
    }
    Res.Uncaught = true;
    Res.Error = "uncaught exception: " + show(Exn);
    return false;
  }

  /// Unwinds a VM-level error. Only finally routes participate (the
  /// interpreter's catch(...) — typed catches see ThrownValue only); the
  /// finalizer runs with an ErrToken standing in for the exception and
  /// its closing AThrow resumes this unwind.
  bool unwindError(std::string Msg) {
    while (!Frames.empty()) {
      VMFrame &F = Frames.back();
      const uint32_t At = F.Pc - 1;
      for (const LHandler &H : F.M->Handlers) {
        if (At < H.Start || At >= H.End || !H.IsFinally)
          continue;
        Sp = F.StackBase + H.Depth;
        VMValue Token;
        Token.Kind = VMValue::ErrToken;
        Stack[Sp++] = Token;
        PendingError = std::move(Msg);
        F.Pc = H.Entry;
        return true;
      }
      Sp = F.Base;
      Frames.pop_back();
    }
    Res.Uncaught = true;
    Res.Error = std::move(Msg);
    return false;
  }

  //===--- inline-cache field resolution ----------------------------------===//

  /// Ident-through-self resolution: exact symbol only, like the
  /// interpreter's frame-miss path (Fields.find(Sym)).
  static bool resolveFieldBySym(LClass *C, Symbol *Sym, uint32_t &Slot) {
    if (uint32_t *S = C->FieldSlotBySym.find(Sym)) {
      Slot = *S - 1;
      return true;
    }
    return false;
  }

  /// Select resolution: exact symbol, then first same-named field in
  /// layout order (the trait-copy fallback).
  static bool resolveFieldByName(LClass *C, const FieldSite &FS,
                                 uint32_t &Slot) {
    if (uint32_t *S = C->FieldSlotBySym.find(FS.Sym)) {
      Slot = *S - 1;
      return true;
    }
    if (uint32_t *S = C->FieldSlotByName.find(FS.NameOrd)) {
      Slot = *S - 1;
      return true;
    }
    return false;
  }

  //===--- stats ----------------------------------------------------------===//

  void resetCounters() {
    std::memset(OpCount, 0, sizeof(OpCount));
    CallHits = CallMisses = FieldHits = FieldMisses = 0;
    FramesPushed = ObjAllocs = ArrAllocs = 0;
  }

  ExecResult finish() {
    Res.Output = Output;
    Res.StepsExecuted = Steps;
    *StepsC += Steps;
    for (size_t I = 0; I < static_cast<size_t>(LOp::NumLOps); ++I)
      *DispatchC[I] += OpCount[I];
    *CallHitsC += CallHits;
    *CallMissesC += CallMisses;
    *FieldHitsC += FieldHits;
    *FieldMissesC += FieldMisses;
    *FramesC += FramesPushed;
    *ObjAllocsC += ObjAllocs;
    *ArrAllocsC += ArrAllocs;
    return Res;
  }

  //===--- the dispatch loop ----------------------------------------------===//

  bool run();

  CompilerContext &Comp;
  LinkedProgram &LP;
  uint64_t StepLimit;
  uint64_t Steps = 0;

  std::vector<VMValue> Stack;
  uint32_t Sp = 0;
  std::vector<VMFrame> Frames;

  std::vector<LClass *> ClassAt;
  std::vector<VMValue> Modules;
  std::vector<uint8_t> ModuleReady;

  VMArena Arena;
  std::deque<std::string> StrHeap;
  std::string Output;
  std::string PendingError;
  ExecResult Res;

  uint64_t OpCount[static_cast<size_t>(LOp::NumLOps)];
  uint64_t CallHits = 0, CallMisses = 0;
  uint64_t FieldHits = 0, FieldMisses = 0;
  uint64_t FramesPushed = 0, ObjAllocs = 0, ArrAllocs = 0;

  // Pre-resolved registry slots (see the constructor).
  uint64_t *StepsC = nullptr;
  uint64_t *DispatchC[static_cast<size_t>(LOp::NumLOps)] = {};
  uint64_t *CallHitsC = nullptr, *CallMissesC = nullptr;
  uint64_t *FieldHitsC = nullptr, *FieldMissesC = nullptr;
  uint64_t *FramesC = nullptr, *ObjAllocsC = nullptr, *ArrAllocsC = nullptr;

  bool PairsOn = false;
  std::vector<uint64_t> Pairs;
};

//===--- run(): the direct-threaded dispatch loop -------------------------===//

// Dispatch uses GNU labels-as-values, which every supported compiler
// (GCC, Clang) provides.
#define VM_CASE(Name) Lbl_##Name:

/// Save the caller-visible Pc into the current frame (the unwinder and
/// callee pushes need it).
#define VM_SYNC() (Frames.back().Pc = Pc)

/// Reload the loop-local execution state from the top frame (after any
/// frame push/pop or stack reallocation).
#define VM_RELOAD()                                                            \
  do {                                                                         \
    VMFrame &F_ = Frames.back();                                               \
    Code = F_.M->Code.data();                                                  \
    Pc = F_.Pc;                                                                \
    Base = F_.Base;                                                            \
    Sk = Stack.data();                                                         \
  } while (0)

/// Raise a VM-level error at the current instruction.
#define VM_TRAP_ERR(MsgExpr)                                                   \
  do {                                                                         \
    VM_SYNC();                                                                 \
    if (!unwindError(MsgExpr))                                                 \
      return false;                                                            \
    VM_RELOAD();                                                               \
    goto dispatch;                                                             \
  } while (0)

/// Throw a guest exception at the current instruction.
#define VM_TRAP_THROW(ValExpr)                                                 \
  do {                                                                         \
    VM_SYNC();                                                                 \
    VMValue Exn_ = (ValExpr);                                                  \
    if (!unwindGuest(Exn_))                                                    \
      return false;                                                            \
    VM_RELOAD();                                                               \
    goto dispatch;                                                             \
  } while (0)

#define VM_NEXT() goto dispatch

bool VM::Impl::run() {
  // One label per opcode, in exact LOp order: the enum value indexes this
  // table, and the threading pass below bakes the address into LInstr::H.
  static const void *const Labels[] = {
      &&Lbl_Nop,         &&Lbl_ConstUnit,     &&Lbl_ConstBool,
      &&Lbl_ConstInt,    &&Lbl_ConstDouble,   &&Lbl_ConstStr,
      &&Lbl_ConstNull,   &&Lbl_ConstClass,    &&Lbl_LoadSlot,
      &&Lbl_StoreSlot,   &&Lbl_LoadSelfField, &&Lbl_StoreSelfField,
      &&Lbl_GetField,    &&Lbl_PutField,      &&Lbl_GetModule,
      &&Lbl_NewObject,   &&Lbl_NewBuiltin,    &&Lbl_InvokeVirt,
      &&Lbl_InvokeSuperM, &&Lbl_InvokeSuperUnit, &&Lbl_InstanceOf,
      &&Lbl_CheckCast,   &&Lbl_NewArray,      &&Lbl_ArrayLoad,
      &&Lbl_ArrayStore,  &&Lbl_ArrayLength,   &&Lbl_ArrUpdateV,
      &&Lbl_Add,         &&Lbl_Sub,           &&Lbl_Mul,
      &&Lbl_Div,         &&Lbl_Rem,           &&Lbl_Neg,
      &&Lbl_CmpLt,       &&Lbl_CmpLe,         &&Lbl_CmpGt,
      &&Lbl_CmpGe,       &&Lbl_CmpEq,         &&Lbl_CmpNe,
      &&Lbl_Not,         &&Lbl_Concat,        &&Lbl_PrimOpEager,
      &&Lbl_StrLen,      &&Lbl_RuntimeEq,     &&Lbl_Println,
      &&Lbl_Print,       &&Lbl_ValueEq,       &&Lbl_ValueNe,
      &&Lbl_ValueToString, &&Lbl_GetClassV,   &&Lbl_Jump,
      &&Lbl_JumpIfFalse, &&Lbl_AThrow,        &&Lbl_ReturnValue,
      &&Lbl_Pop,         &&Lbl_Dup,           &&Lbl_LinkError,
      &&Lbl_LoadLoad,    &&Lbl_LoadConstInt,  &&Lbl_LoadGetField,
      &&Lbl_CmpLtJF,     &&Lbl_CmpLeJF,       &&Lbl_CmpGtJF,
      &&Lbl_CmpGeJF,     &&Lbl_CmpEqJF,       &&Lbl_CmpNeJF,
      &&Lbl_AddStore,    &&Lbl_SubStore,      &&Lbl_LoadConstAdd,
      &&Lbl_LoadConstSub, &&Lbl_LoadConstMul, &&Lbl_LoadConstDiv,
      &&Lbl_LoadConstRem,
  };
  static_assert(sizeof(Labels) / sizeof(Labels[0]) ==
                    static_cast<size_t>(LOp::NumLOps),
                "label table must cover every opcode");
  if (!LP.Threaded) {
    for (const auto &M : LP.Methods)
      for (LInstr &L : M->Code)
        L.H = Labels[static_cast<size_t>(L.Code)];
    LP.Threaded = true;
  }

  const LInstr *Code = nullptr;
  const LInstr *Ip = nullptr;
  uint32_t Pc = 0;
  uint32_t Base = 0;
  VMValue *Sk = nullptr;
  size_t PrevOp = static_cast<size_t>(LOp::Nop);
  VM_RELOAD();

dispatch:
  Ip = Code + Pc++;
  if (++Steps > StepLimit)
    VM_TRAP_ERR("step limit exceeded");
  // Cooperative cancellation, same cadence as the tree interpreter: the
  // guest program controls how long we run, so poll the deadline every
  // 256th step. DeadlineExceeded propagates past run() — the result of a
  // cancelled execution is discarded, never compared.
  if ((Steps & 255) == 0)
    Comp.checkpoint();
  ++OpCount[static_cast<size_t>(Ip->Code)];
  if (PairsOn) {
    const size_t Cur = static_cast<size_t>(Ip->Code);
    Pairs[PrevOp * static_cast<size_t>(LOp::NumLOps) + Cur]++;
    PrevOp = Cur;
  }
  goto *const_cast<void *>(Ip->H);

  VM_CASE(Nop)
  VM_NEXT();

  VM_CASE(ConstUnit) {
    Sk[Sp++] = VMValue();
    VM_NEXT();
  }

  VM_CASE(ConstBool) {
    Sk[Sp++] = vBool(Ip->Imm.I != 0);
    VM_NEXT();
  }

  VM_CASE(ConstInt) {
    Sk[Sp++] = vInt(Ip->Imm.I);
    VM_NEXT();
  }

  VM_CASE(ConstDouble) {
    Sk[Sp++] = vDbl(Ip->Imm.D);
    VM_NEXT();
  }

  VM_CASE(ConstStr) {
    Sk[Sp++] = vStr(static_cast<const std::string *>(Ip->Imm.P));
    VM_NEXT();
  }

  VM_CASE(ConstNull) {
    Sk[Sp++] = vNull();
    VM_NEXT();
  }

  VM_CASE(ConstClass) {
    Sk[Sp++] = vClazz(static_cast<const Type *>(Ip->Imm.P));
    VM_NEXT();
  }

  VM_CASE(LoadSlot) {
    Sk[Sp++] = Sk[Base + Ip->A];
    VM_NEXT();
  }

  VM_CASE(StoreSlot) {
    Sk[Base + Ip->A] = Sk[--Sp];
    VM_NEXT();
  }

  VM_CASE(LoadSelfField) {
    FieldSite &FS = LP.FieldSites[Ip->A];
    const VMValue &Self = Sk[Base];
    if (Self.Kind != VMValue::Obj)
      VM_TRAP_ERR("unbound identifier " + FS.Sym->name().str());
    VMObj *O = Self.O;
    uint32_t Slot;
    if (FS.CachedCls == O->Cls) {
      Slot = FS.CachedSlot;
      ++FieldHits;
    } else {
      if (!resolveFieldBySym(O->Cls, FS.Sym, Slot))
        VM_TRAP_ERR("unbound identifier " + FS.Sym->name().str());
      FS.CachedCls = O->Cls;
      FS.CachedSlot = Slot;
      ++FieldMisses;
    }
    if (Slot >= O->NumFields)
      VM_TRAP_ERR("unbound identifier " + FS.Sym->name().str());
    Sk[Sp++] = O->fields()[Slot];
    VM_NEXT();
  }

  VM_CASE(StoreSelfField) {
    FieldSite &FS = LP.FieldSites[Ip->A];
    const VMValue &Self = Sk[Base];
    if (Self.Kind != VMValue::Obj)
      VM_TRAP_ERR("field store on non-object");
    VMObj *O = Self.O;
    uint32_t Slot;
    if (FS.CachedCls == O->Cls) {
      Slot = FS.CachedSlot;
      ++FieldHits;
    } else {
      if (!resolveFieldByName(O->Cls, FS, Slot))
        VM_TRAP_ERR("no field " + FS.Sym->name().str() + " on " +
                    O->Cls->Cls->name().str());
      FS.CachedCls = O->Cls;
      FS.CachedSlot = Slot;
      ++FieldMisses;
    }
    O->fields()[Slot] = Sk[--Sp];
    if (Slot >= O->NumFields)
      O->NumFields = Slot + 1; // stores insert, like the interpreter's map
    VM_NEXT();
  }

  VM_CASE(GetField) {
    FieldSite &FS = LP.FieldSites[Ip->A];
    const VMValue &Q = Sk[Sp - 1];
    if (Q.Kind != VMValue::Obj)
      VM_TRAP_ERR("field access on non-object value");
    VMObj *O = Q.O;
    uint32_t Slot;
    if (FS.CachedCls == O->Cls) {
      Slot = FS.CachedSlot;
      ++FieldHits;
    } else {
      if (!resolveFieldByName(O->Cls, FS, Slot))
        VM_TRAP_ERR("no field " + FS.Sym->name().str() + " on " +
                    O->Cls->Cls->name().str());
      FS.CachedCls = O->Cls;
      FS.CachedSlot = Slot;
      ++FieldMisses;
    }
    if (Slot >= O->NumFields)
      VM_TRAP_ERR("no field " + FS.Sym->name().str() + " on " +
                  O->Cls->Cls->name().str());
    Sk[Sp - 1] = O->fields()[Slot];
    VM_NEXT();
  }

  VM_CASE(PutField) {
    FieldSite &FS = LP.FieldSites[Ip->A];
    VMValue V = Sk[--Sp];
    VMValue Q = Sk[--Sp];
    if (Q.Kind != VMValue::Obj)
      VM_TRAP_ERR("field store on non-object");
    VMObj *O = Q.O;
    uint32_t Slot;
    if (FS.CachedCls == O->Cls) {
      Slot = FS.CachedSlot;
      ++FieldHits;
    } else {
      if (!resolveFieldByName(O->Cls, FS, Slot))
        VM_TRAP_ERR("no field " + FS.Sym->name().str() + " on " +
                    O->Cls->Cls->name().str());
      FS.CachedCls = O->Cls;
      FS.CachedSlot = Slot;
      ++FieldMisses;
    }
    O->fields()[Slot] = V;
    if (Slot >= O->NumFields)
      O->NumFields = Slot + 1;
    VM_NEXT();
  }

  VM_CASE(GetModule) {
    LClass *LC = ClassAt[Ip->A];
    if (ModuleReady[LC->Index]) {
      Sk[Sp++] = Modules[LC->Index];
      VM_NEXT();
    }
    // First touch: register the instance *before* the constructor runs
    // (the MODULE$ idiom — the initializer may refer back to it).
    VMValue Mod = vObj(allocObj(LC));
    Modules[LC->Index] = Mod;
    ModuleReady[LC->Index] = 1;
    if (!LC->Ctor) {
      Sk[Sp++] = Mod;
      VM_NEXT();
    }
    if (LC->Ctor->NumParams != 0)
      VM_TRAP_ERR("arity mismatch calling " + LC->Ctor->Sym->name().str());
    ensureStack(static_cast<size_t>(Sp) + 2);
    Sk = Stack.data();
    Sk[Sp++] = Mod; // result, kept by FrameDropResult
    Sk[Sp++] = Mod; // receiver = ctor slot 0
    VM_SYNC();
    pushFrame(LC->Ctor, Sp - 1, FrameDropResult);
    VM_RELOAD();
    VM_NEXT();
  }

  VM_CASE(NewObject) {
    LClass *LC = ClassAt[Ip->A];
    const uint32_t Argc = Ip->B;
    VMObj *O = allocObj(LC);
    if (!LC->Ctor) { // no declared ctor: the shell is the object
      Sp -= Argc;
      Sk[Sp++] = vObj(O);
      VM_NEXT();
    }
    if (Argc != LC->Ctor->NumParams)
      VM_TRAP_ERR("arity mismatch calling " + LC->Ctor->Sym->name().str());
    // Make room for [result, receiver] below the already-evaluated
    // arguments: they become the ctor frame's param slots in place.
    ensureStack(static_cast<size_t>(Sp) + 2);
    Sk = Stack.data();
    const uint32_t P = Sp - Argc;
    std::memmove(Sk + P + 2, Sk + P, Argc * sizeof(VMValue));
    Sk[P] = vObj(O);     // survives the call (FrameDropResult)
    Sk[P + 1] = vObj(O); // receiver = ctor slot 0
    Sp += 2;
    VM_SYNC();
    pushFrame(LC->Ctor, P + 1, FrameDropResult);
    VM_RELOAD();
    VM_NEXT();
  }

  VM_CASE(NewBuiltin) {
    LClass *LC = ClassAt[Ip->A];
    const uint32_t Argc = Ip->B;
    VMObj *O = allocObj(LC);
    // builtinNew: the single payload field (Throwable.message /
    // NonLocalReturn.value / Ref.elem) takes the first argument.
    if (Argc > 0 && !LC->FieldSyms.empty()) {
      O->fields()[0] = Sk[Sp - Argc];
      O->NumFields = 1;
    }
    Sp -= Argc;
    Sk[Sp++] = vObj(O);
    VM_NEXT();
  }

  VM_CASE(InvokeVirt) {
    CallSite &CS = LP.CallSites[Ip->A];
    const uint32_t Argc = Ip->B;
    const uint32_t RecvAt = Sp - Argc - 1;
    const VMValue &R = Sk[RecvAt];
    if (R.Kind == VMValue::Null)
      VM_TRAP_THROW(makeError("NullPointerException"));
    if (R.Kind != VMValue::Obj) {
      // Object methods on primitives, routed by the name class the
      // linker computed (the interpreter compares name text here).
      if (CS.NC == CallSite::IsToString) {
        VMValue S = vStr(internStr(show(R)));
        Sp = RecvAt;
        Sk[Sp++] = S;
        VM_NEXT();
      }
      if (CS.NC == CallSite::IsEquals && Argc >= 1) {
        const bool Eq = valueEquals(R, Sk[RecvAt + 1]);
        Sp = RecvAt;
        Sk[Sp++] = vBool(Eq);
        VM_NEXT();
      }
      if (CS.NC == CallSite::IsBangEq && Argc >= 1) {
        const bool Eq = valueEquals(R, Sk[RecvAt + 1]);
        Sp = RecvAt;
        Sk[Sp++] = vBool(!Eq);
        VM_NEXT();
      }
      VM_TRAP_ERR("method call on non-object value: " + CS.Sym->name().str());
    }
    const LMethod *M;
    if (CS.CachedCls == R.O->Cls) {
      M = CS.CachedM;
      ++CallHits;
    } else {
      LMethod **Found = R.O->Cls->Methods.find(CS.NameOrd);
      if (!Found)
        VM_TRAP_ERR("no implementation of " + CS.Sym->name().str() + " in " +
                    R.O->Cls->Cls->name().str());
      M = *Found;
      CS.CachedCls = R.O->Cls;
      CS.CachedM = M;
      ++CallMisses;
    }
    if (Argc != M->NumParams)
      VM_TRAP_ERR("arity mismatch calling " + M->Sym->name().str());
    VM_SYNC();
    pushFrame(M, RecvAt, 0);
    VM_RELOAD();
    VM_NEXT();
  }

  VM_CASE(InvokeSuperM) {
    const auto *M = static_cast<const LMethod *>(Ip->Imm.P);
    const uint32_t Argc = Ip->B;
    const uint32_t RecvAt = Sp - Argc - 1;
    if (Argc != M->NumParams)
      VM_TRAP_ERR("arity mismatch calling " + M->Sym->name().str());
    VM_SYNC();
    pushFrame(M, RecvAt, 0);
    VM_RELOAD();
    VM_NEXT();
  }

  VM_CASE(InvokeSuperUnit) {
    // Builtin or absent super constructor: a no-op returning unit.
    Sp -= Ip->B + 1;
    Sk[Sp++] = VMValue();
    VM_NEXT();
  }

  VM_CASE(InstanceOf) {
    const auto *Ty = static_cast<const Type *>(Ip->Imm.P);
    const VMValue &V = Sk[Sp - 1];
    Sk[Sp - 1] = vBool(V.Kind != VMValue::Null && conforms(V, Ty));
    VM_NEXT();
  }

  VM_CASE(CheckCast) {
    const auto *Ty = static_cast<const Type *>(Ip->Imm.P);
    if (!conforms(Sk[Sp - 1], Ty))
      VM_TRAP_THROW(
          makeError("ClassCastException: value is not a " + Ty->show()));
    VM_NEXT();
  }

  VM_CASE(NewArray) {
    const VMValue Len = Sk[--Sp];
    VMArr *A = allocArr(intOf(Len), static_cast<DefaultKind>(Ip->B));
    Sk = Stack.data(); // allocArr never resizes Stack, but stay uniform
    Sk[Sp++] = vArr(A);
    VM_NEXT();
  }

  VM_CASE(ArrayLoad) {
    const VMValue Ix = Sk[--Sp];
    const VMValue Ar = Sk[--Sp];
    if (Ar.Kind != VMValue::Arr)
      VM_TRAP_ERR("array op on non-array");
    const uint64_t I = static_cast<uint64_t>(intOf(Ix));
    if (I >= static_cast<uint64_t>(Ar.A->Len))
      VM_TRAP_THROW(makeError("ArrayIndexOutOfBounds"));
    Sk[Sp++] = Ar.A->elems()[I];
    VM_NEXT();
  }

  VM_CASE(ArrayStore) {
    const VMValue V = Sk[--Sp];
    const VMValue Ix = Sk[--Sp];
    const VMValue Ar = Sk[--Sp];
    if (Ar.Kind != VMValue::Arr)
      VM_TRAP_ERR("array op on non-array");
    const uint64_t I = static_cast<uint64_t>(intOf(Ix));
    if (I >= static_cast<uint64_t>(Ar.A->Len))
      VM_TRAP_THROW(makeError("ArrayIndexOutOfBounds"));
    Ar.A->elems()[I] = V;
    VM_NEXT();
  }

  VM_CASE(ArrayLength) {
    const VMValue Ar = Sk[--Sp];
    if (Ar.Kind != VMValue::Arr)
      VM_TRAP_ERR("array op on non-array");
    Sk[Sp++] = vInt(Ar.A->Len);
    VM_NEXT();
  }

  VM_CASE(ArrUpdateV) {
    // Array.update through the invoke route: store, result is unit.
    const VMValue V = Sk[--Sp];
    const VMValue Ix = Sk[--Sp];
    const VMValue Ar = Sk[--Sp];
    if (Ar.Kind != VMValue::Arr)
      VM_TRAP_ERR("array op on non-array");
    const uint64_t I = static_cast<uint64_t>(intOf(Ix));
    if (I >= static_cast<uint64_t>(Ar.A->Len))
      VM_TRAP_THROW(makeError("ArrayIndexOutOfBounds"));
    Ar.A->elems()[I] = V;
    Sk[Sp++] = VMValue();
    VM_NEXT();
  }

#define VM_ARITH(Name, OpTok)                                                  \
  VM_CASE(Name) {                                                              \
    const VMValue R = Sk[--Sp];                                                \
    const VMValue L = Sk[--Sp];                                                \
    if (L.Kind == VMValue::Dbl || R.Kind == VMValue::Dbl)                      \
      Sk[Sp++] = vDbl(numOf(L) OpTok numOf(R));                                \
    else                                                                       \
      Sk[Sp++] = vInt(wrap32(intOf(L) OpTok intOf(R)));                        \
    VM_NEXT();                                                                 \
  }

  VM_ARITH(Add, +)
  VM_ARITH(Sub, -)
  VM_ARITH(Mul, *)
#undef VM_ARITH

  VM_CASE(Div) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    if (L.Kind == VMValue::Dbl || R.Kind == VMValue::Dbl) {
      Sk[Sp++] = vDbl(numOf(L) / numOf(R));
    } else {
      if (intOf(R) == 0)
        VM_TRAP_THROW(makeError("ArithmeticException: / by zero"));
      Sk[Sp++] = vInt(wrap32(intOf(L) / intOf(R)));
    }
    VM_NEXT();
  }

  VM_CASE(Rem) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    if (L.Kind == VMValue::Dbl || R.Kind == VMValue::Dbl) {
      Sk[Sp++] = vDbl(std::fmod(numOf(L), numOf(R)));
    } else {
      if (intOf(R) == 0)
        VM_TRAP_THROW(makeError("ArithmeticException: % by zero"));
      Sk[Sp++] = vInt(wrap32(intOf(L) % intOf(R)));
    }
    VM_NEXT();
  }

  VM_CASE(Neg) {
    const VMValue L = Sk[--Sp];
    Sk[Sp++] = L.Kind == VMValue::Dbl ? vDbl(-numOf(L))
                                      : vInt(wrap32(-intOf(L)));
    VM_NEXT();
  }

#define VM_CMP(Name, OpTok)                                                    \
  VM_CASE(Name) {                                                              \
    const VMValue R = Sk[--Sp];                                                \
    const VMValue L = Sk[--Sp];                                                \
    Sk[Sp++] = vBool(numOf(L) OpTok numOf(R));                                 \
    VM_NEXT();                                                                 \
  }

  VM_CMP(CmpLt, <)
  VM_CMP(CmpLe, <=)
  VM_CMP(CmpGt, >)
  VM_CMP(CmpGe, >=)
#undef VM_CMP

  VM_CASE(CmpEq) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    Sk[Sp++] = vBool(valueEquals(L, R));
    VM_NEXT();
  }

  VM_CASE(CmpNe) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    Sk[Sp++] = vBool(!valueEquals(L, R));
    VM_NEXT();
  }

  VM_CASE(Not) {
    const VMValue L = Sk[--Sp];
    Sk[Sp++] = vBool(!truthy(L));
    VM_NEXT();
  }

  VM_CASE(Concat) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    Sk[Sp++] = vStr(internStr(show(L) + show(R)));
    Sk = Stack.data();
    VM_NEXT();
  }

  VM_CASE(PrimOpEager) {
    // && / || survivors and any primOp reached as a value call: both
    // operands are already on the stack, so this is the interpreter's
    // eager primOp switched on the dense kind.
    const uint32_t Argc = Ip->B;
    VMValue R = Argc ? Sk[--Sp] : VMValue();
    VMValue L = Sk[--Sp];
    const bool Dbl =
        L.Kind == VMValue::Dbl || (Argc && R.Kind == VMValue::Dbl);
    const auto K = static_cast<PrimOpKind>(static_cast<int8_t>(Ip->A));
    VMValue Out;
    switch (K) {
    case PrimOpKind::Neg:
      Out = Dbl ? vDbl(-numOf(L)) : vInt(wrap32(-intOf(L)));
      break;
    case PrimOpKind::Not:
      Out = vBool(!truthy(L));
      break;
    case PrimOpKind::Add:
      Out = Dbl ? vDbl(numOf(L) + numOf(R))
                : vInt(wrap32(intOf(L) + intOf(R)));
      break;
    case PrimOpKind::Sub:
      Out = Dbl ? vDbl(numOf(L) - numOf(R))
                : vInt(wrap32(intOf(L) - intOf(R)));
      break;
    case PrimOpKind::Mul:
      Out = Dbl ? vDbl(numOf(L) * numOf(R))
                : vInt(wrap32(intOf(L) * intOf(R)));
      break;
    case PrimOpKind::Div:
      if (!Dbl && intOf(R) == 0)
        VM_TRAP_THROW(makeError("ArithmeticException: / by zero"));
      Out = Dbl ? vDbl(numOf(L) / numOf(R))
                : vInt(wrap32(intOf(L) / intOf(R)));
      break;
    case PrimOpKind::Rem:
      if (!Dbl && intOf(R) == 0)
        VM_TRAP_THROW(makeError("ArithmeticException: % by zero"));
      Out = Dbl ? vDbl(std::fmod(numOf(L), numOf(R)))
                : vInt(wrap32(intOf(L) % intOf(R)));
      break;
    case PrimOpKind::CmpLt:
      Out = vBool(numOf(L) < numOf(R));
      break;
    case PrimOpKind::CmpLe:
      Out = vBool(numOf(L) <= numOf(R));
      break;
    case PrimOpKind::CmpGt:
      Out = vBool(numOf(L) > numOf(R));
      break;
    case PrimOpKind::CmpGe:
      Out = vBool(numOf(L) >= numOf(R));
      break;
    case PrimOpKind::CmpEq:
      Out = vBool(valueEquals(L, R));
      break;
    case PrimOpKind::CmpNe:
      Out = vBool(!valueEquals(L, R));
      break;
    case PrimOpKind::And:
      Out = vBool(truthy(L) && truthy(R));
      break;
    case PrimOpKind::Or:
      Out = vBool(truthy(L) || truthy(R));
      break;
    case PrimOpKind::None:
      VM_TRAP_ERR("unknown primitive operator");
    }
    Sk[Sp++] = Out;
    VM_NEXT();
  }

  VM_CASE(StrLen) {
    const VMValue Q = Sk[--Sp];
    if (Q.Kind != VMValue::Str)
      VM_TRAP_ERR("string length on non-string");
    Sk[Sp++] = vInt(static_cast<int64_t>(Q.S->size()));
    VM_NEXT();
  }

  VM_CASE(RuntimeEq) {
    const VMValue B = Sk[--Sp];
    const VMValue A = Sk[--Sp];
    --Sp; // the Runtime module reference
    Sk[Sp++] = vBool(valueEquals(A, B));
    VM_NEXT();
  }

  VM_CASE(Println) {
    const VMValue A = Sk[--Sp];
    --Sp; // the Predef module reference
    Output += show(A);
    Output += '\n';
    Sk[Sp++] = VMValue();
    VM_NEXT();
  }

  VM_CASE(Print) {
    const VMValue A = Sk[--Sp];
    --Sp;
    Output += show(A);
    Sk[Sp++] = VMValue();
    VM_NEXT();
  }

  VM_CASE(ValueEq) {
    const VMValue R = Sk[--Sp];
    const VMValue Q = Sk[--Sp];
    Sk[Sp++] = vBool(valueEquals(Q, R));
    VM_NEXT();
  }

  VM_CASE(ValueNe) {
    const VMValue R = Sk[--Sp];
    const VMValue Q = Sk[--Sp];
    Sk[Sp++] = vBool(!valueEquals(Q, R));
    VM_NEXT();
  }

  VM_CASE(ValueToString) {
    const VMValue Q = Sk[--Sp];
    Sk[Sp++] = vStr(internStr(show(Q)));
    Sk = Stack.data();
    VM_NEXT();
  }

  VM_CASE(GetClassV) {
    const VMValue Q = Sk[--Sp];
    Sk[Sp++] = classValueOf(Q);
    VM_NEXT();
  }

  VM_CASE(Jump) {
    Pc = Ip->A;
    VM_NEXT();
  }

  VM_CASE(JumpIfFalse) {
    const VMValue C = Sk[--Sp];
    if (!truthy(C))
      Pc = Ip->A;
    VM_NEXT();
  }

  VM_CASE(AThrow) {
    VMValue V = Sk[--Sp];
    if (V.Kind == VMValue::ErrToken) {
      // A finally block finished replaying a VM error: resume its unwind.
      std::string Msg = std::move(PendingError);
      PendingError.clear();
      VM_TRAP_ERR(std::move(Msg));
    }
    VM_TRAP_THROW(V);
  }

  VM_CASE(ReturnValue) {
    const VMValue V = Sk[--Sp];
    const VMFrame F = Frames.back();
    Frames.pop_back();
    Sp = F.Base;
    if (!(F.Flags & FrameDropResult))
      Sk[Sp++] = V;
    // else: the object stashed at Base - 1 is already on top.
    if (Frames.empty())
      return true;
    VM_RELOAD();
    VM_NEXT();
  }

  VM_CASE(Pop) {
    --Sp;
    VM_NEXT();
  }

  VM_CASE(Dup) {
    Sk[Sp] = Sk[Sp - 1];
    ++Sp;
    VM_NEXT();
  }

  VM_CASE(LinkError) {
    VM_TRAP_ERR(*static_cast<const std::string *>(Ip->Imm.P));
  }

  //===--- superinstructions ----------------------------------------------===//

  VM_CASE(LoadLoad) {
    Sk[Sp++] = Sk[Base + Ip->A];
    Sk[Sp++] = Sk[Base + Ip->B];
    VM_NEXT();
  }

  VM_CASE(LoadConstInt) {
    Sk[Sp++] = Sk[Base + Ip->A];
    Sk[Sp++] = vInt(Ip->Imm.I);
    VM_NEXT();
  }

  VM_CASE(LoadGetField) {
    // LoadSlot ; GetField fused: the slot load feeds the field read.
    FieldSite &FS = LP.FieldSites[Ip->A];
    const VMValue &Q = Sk[Base + Ip->B];
    if (Q.Kind != VMValue::Obj)
      VM_TRAP_ERR("field access on non-object value");
    VMObj *O = Q.O;
    uint32_t Slot;
    if (FS.CachedCls == O->Cls) {
      Slot = FS.CachedSlot;
      ++FieldHits;
    } else {
      if (!resolveFieldByName(O->Cls, FS, Slot))
        VM_TRAP_ERR("no field " + FS.Sym->name().str() + " on " +
                    O->Cls->Cls->name().str());
      FS.CachedCls = O->Cls;
      FS.CachedSlot = Slot;
      ++FieldMisses;
    }
    if (Slot >= O->NumFields)
      VM_TRAP_ERR("no field " + FS.Sym->name().str() + " on " +
                  O->Cls->Cls->name().str());
    Sk[Sp++] = O->fields()[Slot];
    VM_NEXT();
  }

#define VM_CMP_JF(Name, OpTok)                                                 \
  VM_CASE(Name) {                                                              \
    const VMValue R = Sk[--Sp];                                                \
    const VMValue L = Sk[--Sp];                                                \
    if (!(numOf(L) OpTok numOf(R)))                                            \
      Pc = Ip->A;                                                              \
    VM_NEXT();                                                                 \
  }

  VM_CMP_JF(CmpLtJF, <)
  VM_CMP_JF(CmpLeJF, <=)
  VM_CMP_JF(CmpGtJF, >)
  VM_CMP_JF(CmpGeJF, >=)
#undef VM_CMP_JF

  VM_CASE(CmpEqJF) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    if (!valueEquals(L, R))
      Pc = Ip->A;
    VM_NEXT();
  }

  VM_CASE(CmpNeJF) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    if (valueEquals(L, R))
      Pc = Ip->A;
    VM_NEXT();
  }

  // Second-order fusions. Each body is the two component bodies glued
  // together with the intermediate push/pop elided — semantics (double
  // promotion, 32-bit wrap, division-by-zero guest errors) are exactly
  // the component ops'.

#define VM_ARITH_STORE(Name, OpTok)                                            \
  VM_CASE(Name) {                                                              \
    const VMValue R = Sk[--Sp];                                                \
    const VMValue L = Sk[--Sp];                                                \
    if (L.Kind == VMValue::Dbl || R.Kind == VMValue::Dbl)                      \
      Sk[Base + Ip->A] = vDbl(numOf(L) OpTok numOf(R));                        \
    else                                                                       \
      Sk[Base + Ip->A] = vInt(wrap32(intOf(L) OpTok intOf(R)));                \
    VM_NEXT();                                                                 \
  }

  VM_ARITH_STORE(AddStore, +)
  VM_ARITH_STORE(SubStore, -)
#undef VM_ARITH_STORE

  // The constant half is always an Int (it came from ConstInt), so
  // double promotion can only come from the slot operand.
#define VM_LOADCONST_ARITH(Name, OpTok)                                        \
  VM_CASE(Name) {                                                              \
    const VMValue L = Sk[Base + Ip->A];                                        \
    const int64_t C = Ip->Imm.I;                                               \
    if (L.Kind == VMValue::Dbl)                                                \
      Sk[Sp++] = vDbl(numOf(L) OpTok static_cast<double>(C));                  \
    else                                                                       \
      Sk[Sp++] = vInt(wrap32(intOf(L) OpTok C));                               \
    VM_NEXT();                                                                 \
  }

  VM_LOADCONST_ARITH(LoadConstAdd, +)
  VM_LOADCONST_ARITH(LoadConstSub, -)
  VM_LOADCONST_ARITH(LoadConstMul, *)
#undef VM_LOADCONST_ARITH

  VM_CASE(LoadConstDiv) {
    const VMValue L = Sk[Base + Ip->A];
    const int64_t C = Ip->Imm.I;
    if (L.Kind == VMValue::Dbl) {
      Sk[Sp++] = vDbl(numOf(L) / static_cast<double>(C));
    } else {
      if (C == 0)
        VM_TRAP_THROW(makeError("ArithmeticException: / by zero"));
      Sk[Sp++] = vInt(wrap32(intOf(L) / C));
    }
    VM_NEXT();
  }

  VM_CASE(LoadConstRem) {
    const VMValue L = Sk[Base + Ip->A];
    const int64_t C = Ip->Imm.I;
    if (L.Kind == VMValue::Dbl) {
      Sk[Sp++] = vDbl(std::fmod(numOf(L), static_cast<double>(C)));
    } else {
      if (C == 0)
        VM_TRAP_THROW(makeError("ArithmeticException: % by zero"));
      Sk[Sp++] = vInt(wrap32(intOf(L) % C));
    }
    VM_NEXT();
  }

  return true; // unreachable: every opcode body jumps or returns
}

//===--- public API --------------------------------------------------------===//

VM::VM(CompilerContext &Comp, LinkedProgram &Linked, uint64_t StepLimit)
    : P(std::make_unique<Impl>(Comp, Linked, StepLimit)) {}

VM::~VM() = default;

ExecResult VM::runMain(Symbol *EntryPoint,
                       const std::vector<std::string> &Args) {
  return P->runMain(EntryPoint, Args);
}

void VM::enablePairCounts() { P->enablePairCounts(); }

const std::vector<uint64_t> &VM::pairCounts() const { return P->pairCounts(); }
