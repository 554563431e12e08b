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
#include "memsim/PagePool.h"

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <new>

using namespace mpc;

namespace {

struct VMObj;
struct VMArr;

/// A flat tagged value: one kind byte and one 8-byte payload. The tree
/// interpreter carries separate I/D/S fields per value (so e.g. `V.I` of
/// a Double reads a never-written zero); the helpers below (truthy /
/// intOf / numOf) reproduce those reads against the union.
///
/// A value is always written whole, as one 16-byte store. The handlers
/// copy values with 16-byte loads, and a load that spans two narrower
/// stores (kind byte, then payload) cannot be forwarded from the store
/// buffer: each such push-then-copy stalled the loop.
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
  VMValue() : VMValue(Unit, 0) {}
  /// Builds kind and payload as the two 8-byte lanes of one vector and
  /// copies it in: one 16-byte store, with the padding zeroed.
  VMValue(K Tag, uint64_t Payload) {
    typedef uint64_t Lanes __attribute__((vector_size(16), aligned(8)));
    const Lanes Raw = {Tag, Payload};
    std::memcpy(static_cast<void *>(this), &Raw, sizeof(Raw));
  }
};
static_assert(sizeof(VMValue) == 16 && alignof(VMValue) == 8);
static_assert(std::endian::native == std::endian::little,
              "Kind is the first byte of the low lane");

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

/// Bump allocator for objects and arrays over 64 KiB pages from the
/// process's page source, so a VM's memory goes back warm to the next VM
/// (or compile) when it is destroyed, instead of into malloc's heap.
/// Guest programs are bounded by the step limit, so the run's
/// allocations simply live until the VM is destroyed; no collector.
/// Pages are not zeroed: allocObj and allocArr write every word they
/// hand out. Each page starts with a link to the page taken before it;
/// an allocation larger than a page gets a block of its own.
class VMArena {
public:
  VMArena() = default;
  VMArena(const VMArena &) = delete;
  VMArena &operator=(const VMArena &) = delete;
  ~VMArena() {
    while (Head) {
      void *Prev = *static_cast<void **>(Head);
      PagePool::global().put(Head);
      Head = Prev;
    }
  }

  void *alloc(size_t Bytes) {
    Bytes = (Bytes + 15) & ~size_t(15);
    if (Bytes > PageBytes - LinkBytes) {
      Oversized.push_back(std::make_unique_for_overwrite<char[]>(Bytes));
      return Oversized.back().get();
    }
    if (Used + Bytes > PageBytes) {
      void *Page = PagePool::global().take().Page;
      *static_cast<void **>(Page) = Head;
      Head = Page;
      Used = LinkBytes;
    }
    void *P = static_cast<char *>(Head) + Used;
    Used += Bytes;
    return P;
  }

private:
  static constexpr size_t PageBytes = PagePool::PageBytes;
  static constexpr size_t LinkBytes = 16; // keeps blocks 16-byte aligned
  void *Head = nullptr;
  std::vector<std::unique_ptr<char[]>> Oversized;
  size_t Used = PageBytes;
};

VMValue vBool(bool B) { return VMValue(VMValue::Bool, B); }
VMValue vInt(int64_t N) {
  return VMValue(VMValue::Int, static_cast<uint64_t>(N));
}
VMValue vDbl(double N) {
  return VMValue(VMValue::Dbl, std::bit_cast<uint64_t>(N));
}
VMValue vStr(const std::string *S) {
  return VMValue(VMValue::Str, reinterpret_cast<uintptr_t>(S));
}
VMValue vNull() { return VMValue(VMValue::Null, 0); }
VMValue vObj(VMObj *O) {
  return VMValue(VMValue::Obj, reinterpret_cast<uintptr_t>(O));
}
VMValue vArr(VMArr *A) {
  return VMValue(VMValue::Arr, reinterpret_cast<uintptr_t>(A));
}
VMValue vClazz(const Type *Cl) {
  return VMValue(VMValue::Clazz, reinterpret_cast<uintptr_t>(Cl));
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
    // Resolve the stats-registry slots once: finish() runs after every
    // runMain, and repeated executions (bench loops, warmed services)
    // must not pay a map-of-strings walk per guest run. References into
    // the registry stay valid for the VM's lifetime (the context is only
    // reset between jobs, never while a VM is live).
    StatsRegistry &S = Comp.stats();
    StepsC = &S.counter("backend.vm.steps");
    CallHitsC = &S.counter("backend.vm.ic.call.hits");
    CallMissesC = &S.counter("backend.vm.ic.call.misses");
    FieldHitsC = &S.counter("backend.vm.ic.field.hits");
    FieldMissesC = &S.counter("backend.vm.ic.field.misses");
    FramesC = &S.counter("backend.vm.frames");
    ObjAllocsC = &S.counter("backend.vm.alloc.objects");
    ArrAllocsC = &S.counter("backend.vm.alloc.arrays");
  }

  ExecResult runMain(Symbol *Entry, const std::vector<std::string> &Args) {
    Uncaught = false;
    Error.clear();
    Output.clear();
    StepsTaken = 0;
    resetCounters();
    Frames.clear();
    Top = 0;
    PendingError.clear();

    if (!LP.Failures.empty()) {
      Uncaught = true;
      Error = "bytecode verification failed: " + LP.Failures.front().Message;
      return finish();
    }

    // The entry's class and method, looked up once per entry symbol; the
    // linked tables never change while the VM lives.
    if (Entry != EntrySym) {
      EntrySym = Entry;
      LClass **LCp = LP.ClassBySym.find(cast<ClassSymbol>(Entry->owner()));
      EntryCls = LCp ? *LCp : nullptr;
      LMethod **Mp =
          EntryCls ? EntryCls->Methods.find(Entry->name().ordinal()) : nullptr;
      EntryM = Mp ? *Mp : nullptr;
    }
    LClass *LC = EntryCls;

    // Module instance of the entry point's owner, constructor included
    // (the lazy GetModule path would do the same on first touch).
    VMValue ModV;
    if (LC && !ModuleReady[LC->Index]) {
      ModV = vObj(allocObj(LC));
      Modules[LC->Index] = ModV;
      ModuleReady[LC->Index] = 1;
      if (LC->Ctor) {
        if (LC->Ctor->NumParams != 0) {
          Uncaught = true;
          Error = "arity mismatch calling " + LC->Ctor->Sym->name().str();
          return finish();
        }
        ensureStack(8);
        Top = 0;
        Stack[Top++] = ModV; // result (kept by FrameDropResult)
        Stack[Top++] = ModV; // receiver = slot 0
        pushFrame(LC->Ctor, 1, FrameDropResult);
        if (!run())
          return finish();
      }
    } else if (LC) {
      ModV = Modules[LC->Index];
    }

    // Entry lookup by name, like the interpreter's findMethod walk
    // (hoisted into the linked method table).
    const LMethod *M = EntryM;
    if (!M) {
      Uncaught = true;
      Error = "no implementation of " + Entry->name().str() + " in " +
              Entry->owner()->name().str();
      return finish();
    }
    if (M->NumParams != 1) {
      Uncaught = true;
      Error = "arity mismatch calling " + M->Sym->name().str();
      return finish();
    }

    VMArr *ArgArr = allocArr(static_cast<int64_t>(Args.size()));
    for (size_t I = 0; I < Args.size(); ++I)
      ArgArr->elems()[I] = vStr(internStr(Args[I]));

    ensureStack(8);
    Top = 0;
    Stack[Top++] = ModV;
    Stack[Top++] = vArr(ArgArr);
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
    std::string S;
    showTo(S, V);
    return S;
  }

  /// Appends show(V) to \p Out: printing and concatenation render into
  /// their destination without a temporary per value.
  void showTo(std::string &Out, const VMValue &V) {
    switch (V.Kind) {
    case VMValue::Unit:
      Out += "()";
      return;
    case VMValue::Bool:
      Out += V.I ? "true" : "false";
      return;
    case VMValue::Int: {
      char Buf[24];
      Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V.I).ptr);
      return;
    }
    case VMValue::Dbl: {
      // What `ostream << double` prints at its default precision.
      char Buf[48];
      const int N = std::snprintf(Buf, sizeof(Buf), "%g", V.D);
      Out.append(Buf, static_cast<size_t>(N));
      return;
    }
    case VMValue::Str:
      Out += *V.S;
      return;
    case VMValue::Null:
      Out += "null";
      return;
    case VMValue::Clazz:
      Out += "class ";
      V.Cl->print(Out);
      return;
    case VMValue::Arr:
      Out += "Array(";
      for (int64_t I = 0; I < V.A->Len; ++I) {
        if (I)
          Out += ", ";
        showTo(Out, V.A->elems()[I]);
      }
      Out += ')';
      return;
    case VMValue::Obj: {
      LClass *C = V.O->Cls;
      Out += C->Cls->name().text();
      if (C->IsCase) {
        Out += '(';
        bool First = true;
        for (int32_t Slot : C->CaseFieldSlots) {
          if (!First)
            Out += ", ";
          First = false;
          showTo(Out, caseSlotValue(V.O, Slot));
        }
        Out += ')';
      } else if (C->IsThrowable) {
        VMValue Msg = caseSlotValue(V.O, C->MsgSlot);
        if (Msg.Kind == VMValue::Str) {
          Out += '(';
          Out += *Msg.S;
          Out += ')';
        }
      } else {
        Out += "@instance";
      }
      return;
    }
    default:
      Out += '?';
      return;
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
    Top = Base + M->NumSlots;
    Frames.push_back({M, 0, Base, Top, Flags});
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
        Top = F.StackBase + H.Depth;
        Stack[Top++] = Exn;
        F.Pc = H.Entry;
        return true;
      }
      Top = F.Base;
      Frames.pop_back();
    }
    Uncaught = true;
    Error = "uncaught exception: " + show(Exn);
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
        Top = F.StackBase + H.Depth;
        Stack[Top++] = VMValue(VMValue::ErrToken, 0);
        PendingError = std::move(Msg);
        F.Pc = H.Entry;
        return true;
      }
      Top = F.Base;
      Frames.pop_back();
    }
    Uncaught = true;
    Error = std::move(Msg);
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
    CallHits = CallMisses = FieldHits = FieldMisses = 0;
    FramesPushed = ObjAllocs = ArrAllocs = 0;
  }

  /// Flushes the run's counters and builds the result in the caller's
  /// return slot; Output and Error are moved in, not copied.
  ExecResult finish() {
    ExecResult R;
    R.Output = std::move(Output);
    R.Uncaught = Uncaught;
    R.Error = std::move(Error);
    R.StepsExecuted = StepsTaken;
    *StepsC += StepsTaken;
    *CallHitsC += CallHits;
    *CallMissesC += CallMisses;
    *FieldHitsC += FieldHits;
    *FieldMissesC += FieldMisses;
    *FramesC += FramesPushed;
    *ObjAllocsC += ObjAllocs;
    *ArrAllocsC += ArrAllocs;
    return R;
  }

  //===--- the dispatch loop ----------------------------------------------===//

  bool run();

  CompilerContext &Comp;
  LinkedProgram &LP;
  uint64_t StepLimit;
  /// Steps of the current runMain. run() keeps its count in a local and
  /// stores it here on every exit.
  uint64_t StepsTaken = 0;

  std::vector<VMValue> Stack;
  /// Operand-stack height outside run() and across the calls run() makes
  /// into pushFrame and the unwinders, which set it; run() keeps its own
  /// copy in a local (VM_SYNC / VM_RELOAD move it across).
  uint32_t Top = 0;
  std::vector<VMFrame> Frames;

  /// runMain's entry resolution, cached for the last entry symbol.
  Symbol *EntrySym = nullptr;
  LClass *EntryCls = nullptr;
  const LMethod *EntryM = nullptr;

  std::vector<LClass *> ClassAt;
  std::vector<VMValue> Modules;
  std::vector<uint8_t> ModuleReady;

  VMArena Arena;
  std::deque<std::string> StrHeap;
  std::string Output;
  std::string PendingError;
  /// The run's ending, when an exception or VM error escaped main.
  bool Uncaught = false;
  std::string Error;

  uint64_t CallHits = 0, CallMisses = 0;
  uint64_t FieldHits = 0, FieldMisses = 0;
  uint64_t FramesPushed = 0, ObjAllocs = 0, ArrAllocs = 0;

  // Pre-resolved registry slots (see the constructor).
  uint64_t *StepsC = nullptr;
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

/// Save the caller-visible Pc into the current frame and the stack height
/// into Top (the unwinders and callee pushes read the one and set the
/// other).
#define VM_SYNC()                                                              \
  (Frames.back().Pc = static_cast<uint32_t>(Pc - Code), Top = Sp)

/// Load the loop-local code position from the top frame (after a frame
/// pop, whose stack height run() computed itself).
#define VM_RESUME_FRAME()                                                      \
  do {                                                                         \
    VMFrame &F_ = Frames.back();                                               \
    Code = F_.M->Code.data();                                                  \
    Pc = Code + F_.Pc;                                                         \
    Base = F_.Base;                                                            \
  } while (0)

/// Reload all loop-local execution state from the top frame and Top (after
/// a frame push, an unwind or a stack reallocation).
#define VM_RELOAD()                                                            \
  do {                                                                         \
    VM_RESUME_FRAME();                                                         \
    Sk = Stack.data();                                                         \
    Sp = Top;                                                                  \
  } while (0)

/// Leave run(), storing the loop-local step count first.
#define VM_LEAVE(Ok)                                                           \
  do {                                                                         \
    StepsTaken = SlowAt - Fuel;                                                \
    return Ok;                                                                 \
  } while (0)

/// Raise a VM-level error at the current instruction.
#define VM_TRAP_ERR(MsgExpr)                                                   \
  do {                                                                         \
    VM_SYNC();                                                                 \
    if (!unwindError(MsgExpr))                                                 \
      VM_LEAVE(false); /* the unwinder has set Top */                          \
    VM_RELOAD();                                                               \
    goto dispatch;                                                             \
  } while (0)

/// Throw a guest exception at the current instruction.
#define VM_TRAP_THROW(ValExpr)                                                 \
  do {                                                                         \
    VM_SYNC();                                                                 \
    VMValue Exn_ = (ValExpr);                                                  \
    if (!unwindGuest(Exn_))                                                    \
      VM_LEAVE(false); /* the unwinder has set Top */                          \
    VM_RELOAD();                                                               \
    goto dispatch;                                                             \
  } while (0)

/// Fetch and jump to the next instruction. Every handler ends in its own
/// copy, so the compiler can give handlers their own indirect jumps, each
/// with its own branch-predictor history (GCC merges some tails). The
/// step limit, the cancellation poll and pair counting share one
/// predicted-not-taken branch into `slow`: Fuel counts down the dispatches
/// until the next step that needs any of them.
#define VM_NEXT()                                                              \
  do {                                                                         \
    Ip = Pc++;                                                                 \
    if (__builtin_expect(--Fuel == 0, 0))                                      \
      goto slow;                                                               \
    goto *const_cast<void *>(Ip->H);                                           \
  } while (0)

/// Dispatches from step \p Steps to the next one that must take `slow`: the
/// first past the limit, the next multiple of 256 (the cancellation poll),
/// or the very next one while pairs are counted.
static uint64_t dispatchesToSlowPath(uint64_t Steps, uint64_t Limit,
                                     bool CountPairs) {
  if (CountPairs || Steps >= Limit)
    return 1;
  const uint64_t ToPoll = 256 - (Steps & 255);
  const uint64_t ToLimit = Limit - Steps;
  return ToLimit < ToPoll ? ToLimit + 1 : ToPoll;
}

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

  // The loop's state lives in locals so the compiler can keep it in
  // registers; every exit stores StepsTaken, and Top unless an unwinder
  // has already set it. Pc is the next instruction, Ip the one executing.
  const LInstr *Code = nullptr;
  const LInstr *Pc = nullptr;
  const LInstr *Ip = nullptr;
  uint32_t Base = 0;
  VMValue *Sk = nullptr;
  uint32_t Sp = 0;
  const uint64_t Limit = StepLimit;
  const bool CountPairs = PairsOn;
  // The step count is SlowAt - Fuel; SlowAt is the step that next takes
  // `slow`.
  uint64_t Fuel = dispatchesToSlowPath(StepsTaken, Limit, CountPairs);
  uint64_t SlowAt = StepsTaken + Fuel;
  size_t PrevOp = static_cast<size_t>(LOp::Nop);
  VM_RELOAD();

dispatch:
  VM_NEXT();

slow: {
  // Fuel is refilled before the limit check: a trap can resume at a
  // finally block, whose first dispatch must trap again.
  const uint64_t Steps = SlowAt;
  Fuel = dispatchesToSlowPath(Steps, Limit, CountPairs);
  SlowAt = Steps + Fuel;
  if (Steps > Limit)
    VM_TRAP_ERR("step limit exceeded");
  // Cooperative cancellation, same cadence as the tree interpreter: the
  // guest program controls how long we run, so poll the deadline every
  // 256th step. DeadlineExceeded propagates past run() — the result of a
  // cancelled execution is discarded, never compared.
  if ((Steps & 255) == 0)
    Comp.checkpoint();
  if (CountPairs) {
    const size_t Cur = static_cast<size_t>(Ip->Code);
    Pairs[PrevOp * static_cast<size_t>(LOp::NumLOps) + Cur]++;
    PrevOp = Cur;
  }
  goto *const_cast<void *>(Ip->H);
}

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
    std::string S;
    showTo(S, L);
    showTo(S, R);
    Sk[Sp++] = vStr(internStr(std::move(S)));
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
    showTo(Output, A);
    Output += '\n';
    Sk[Sp++] = VMValue();
    VM_NEXT();
  }

  VM_CASE(Print) {
    const VMValue A = Sk[--Sp];
    --Sp;
    showTo(Output, A);
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
    Pc = Code + Ip->A;
    VM_NEXT();
  }

  VM_CASE(JumpIfFalse) {
    const VMValue C = Sk[--Sp];
    if (!truthy(C))
      Pc = Code + Ip->A;
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
    // Field by field: a whole-frame copy is a wide load over the narrow
    // stores pushFrame just made, which the store buffer cannot forward.
    const VMValue V = Sk[--Sp];
    const VMFrame &F = Frames.back();
    Sp = F.Base;
    const bool Drop = F.Flags & FrameDropResult;
    Frames.pop_back();
    if (!Drop)
      Sk[Sp++] = V;
    // else: the object stashed at Base - 1 is already on top.
    if (Frames.empty()) {
      Top = Sp;
      VM_LEAVE(true);
    }
    VM_RESUME_FRAME();
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
      Pc = Code + Ip->A;                                                       \
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
      Pc = Code + Ip->A;
    VM_NEXT();
  }

  VM_CASE(CmpNeJF) {
    const VMValue R = Sk[--Sp];
    const VMValue L = Sk[--Sp];
    if (valueEquals(L, R))
      Pc = Code + Ip->A;
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

#undef VM_NEXT
#undef VM_TRAP_THROW
#undef VM_TRAP_ERR
#undef VM_LEAVE
#undef VM_RELOAD
#undef VM_RESUME_FRAME
#undef VM_SYNC
#undef VM_CASE

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
