#include "backend/Linker.h"

#include "backend/Verifier.h"
#include "core/CompilerContext.h"

#include <cassert>
#include <cstring>

using namespace mpc;

const char *mpc::lopName(LOp Code) {
  switch (Code) {
  case LOp::Nop: return "Nop";
  case LOp::ConstUnit: return "ConstUnit";
  case LOp::ConstBool: return "ConstBool";
  case LOp::ConstInt: return "ConstInt";
  case LOp::ConstDouble: return "ConstDouble";
  case LOp::ConstStr: return "ConstStr";
  case LOp::ConstNull: return "ConstNull";
  case LOp::ConstClass: return "ConstClass";
  case LOp::LoadSlot: return "LoadSlot";
  case LOp::StoreSlot: return "StoreSlot";
  case LOp::LoadSelfField: return "LoadSelfField";
  case LOp::StoreSelfField: return "StoreSelfField";
  case LOp::GetField: return "GetField";
  case LOp::PutField: return "PutField";
  case LOp::GetModule: return "GetModule";
  case LOp::NewObject: return "NewObject";
  case LOp::NewBuiltin: return "NewBuiltin";
  case LOp::InvokeVirt: return "InvokeVirt";
  case LOp::InvokeSuperM: return "InvokeSuperM";
  case LOp::InvokeSuperUnit: return "InvokeSuperUnit";
  case LOp::InstanceOf: return "InstanceOf";
  case LOp::CheckCast: return "CheckCast";
  case LOp::NewArray: return "NewArray";
  case LOp::ArrayLoad: return "ArrayLoad";
  case LOp::ArrayStore: return "ArrayStore";
  case LOp::ArrayLength: return "ArrayLength";
  case LOp::ArrUpdateV: return "ArrUpdateV";
  case LOp::Add: return "Add";
  case LOp::Sub: return "Sub";
  case LOp::Mul: return "Mul";
  case LOp::Div: return "Div";
  case LOp::Rem: return "Rem";
  case LOp::Neg: return "Neg";
  case LOp::CmpLt: return "CmpLt";
  case LOp::CmpLe: return "CmpLe";
  case LOp::CmpGt: return "CmpGt";
  case LOp::CmpGe: return "CmpGe";
  case LOp::CmpEq: return "CmpEq";
  case LOp::CmpNe: return "CmpNe";
  case LOp::Not: return "Not";
  case LOp::Concat: return "Concat";
  case LOp::PrimOpEager: return "PrimOpEager";
  case LOp::StrLen: return "StrLen";
  case LOp::RuntimeEq: return "RuntimeEq";
  case LOp::Println: return "Println";
  case LOp::Print: return "Print";
  case LOp::ValueEq: return "ValueEq";
  case LOp::ValueNe: return "ValueNe";
  case LOp::ValueToString: return "ValueToString";
  case LOp::GetClassV: return "GetClassV";
  case LOp::Jump: return "Jump";
  case LOp::JumpIfFalse: return "JumpIfFalse";
  case LOp::AThrow: return "AThrow";
  case LOp::ReturnValue: return "ReturnValue";
  case LOp::Pop: return "Pop";
  case LOp::Dup: return "Dup";
  case LOp::LinkError: return "LinkError";
  case LOp::LoadLoad: return "LoadLoad";
  case LOp::LoadConstInt: return "LoadConstInt";
  case LOp::LoadGetField: return "LoadGetField";
  case LOp::CmpLtJF: return "CmpLtJF";
  case LOp::CmpLeJF: return "CmpLeJF";
  case LOp::CmpGtJF: return "CmpGtJF";
  case LOp::CmpGeJF: return "CmpGeJF";
  case LOp::CmpEqJF: return "CmpEqJF";
  case LOp::CmpNeJF: return "CmpNeJF";
  case LOp::AddStore: return "AddStore";
  case LOp::SubStore: return "SubStore";
  case LOp::LoadConstAdd: return "LoadConstAdd";
  case LOp::LoadConstSub: return "LoadConstSub";
  case LOp::LoadConstMul: return "LoadConstMul";
  case LOp::LoadConstDiv: return "LoadConstDiv";
  case LOp::LoadConstRem: return "LoadConstRem";
  case LOp::NumLOps: break;
  }
  return "?";
}

namespace {

/// Superinstruction fusion rules: (first, second) -> fused. The pairs were
/// picked from measured dynamic pair frequencies on the workload families
/// (bench_vm_pairs); compare-and-branch dominates loop-heavy code,
/// load-load and load-const feed nearly every binary operation.
struct FuseRule {
  LOp First, Second, Fused;
};
constexpr FuseRule FuseRules[] = {
    {LOp::LoadSlot, LOp::LoadSlot, LOp::LoadLoad},
    {LOp::LoadSlot, LOp::ConstInt, LOp::LoadConstInt},
    {LOp::LoadSlot, LOp::GetField, LOp::LoadGetField},
    {LOp::CmpLt, LOp::JumpIfFalse, LOp::CmpLtJF},
    {LOp::CmpLe, LOp::JumpIfFalse, LOp::CmpLeJF},
    {LOp::CmpGt, LOp::JumpIfFalse, LOp::CmpGtJF},
    {LOp::CmpGe, LOp::JumpIfFalse, LOp::CmpGeJF},
    {LOp::CmpEq, LOp::JumpIfFalse, LOp::CmpEqJF},
    {LOp::CmpNe, LOp::JumpIfFalse, LOp::CmpNeJF},
    // Second-order rules: LoadConstInt only exists after the first fuse
    // pass, so these fire on the second (fuseMethod runs to fixpoint).
    {LOp::Add, LOp::StoreSlot, LOp::AddStore},
    {LOp::Sub, LOp::StoreSlot, LOp::SubStore},
    {LOp::LoadConstInt, LOp::Add, LOp::LoadConstAdd},
    {LOp::LoadConstInt, LOp::Sub, LOp::LoadConstSub},
    {LOp::LoadConstInt, LOp::Mul, LOp::LoadConstMul},
    {LOp::LoadConstInt, LOp::Div, LOp::LoadConstDiv},
    {LOp::LoadConstInt, LOp::Rem, LOp::LoadConstRem},
};

class Linker {
public:
  Linker(const Program &Prog, CompilerContext &Comp, const LinkOptions &Opts)
      : Prog(Prog), Comp(Comp), Opts(Opts) {}

  LinkedProgram run() {
    SymbolTable &Syms = Comp.syms();
    for (const ClassFile &CF : Prog.Classes)
      FileOf.insert(CF.Cls, &CF);
    // Shells + method objects first: method tables and super resolution
    // need every LMethod address before any body links.
    ensureClass(Syms.throwableClass()); // makeError's class, always live
    for (const ClassFile &CF : Prog.Classes) {
      LClass *LC = ensureClass(CF.Cls);
      for (const MethodCode &MC : CF.Methods) {
        LP.Methods.push_back(std::make_unique<LMethod>());
        LMethod *M = LP.Methods.back().get();
        M->Sym = MC.Method;
        M->Owner = LC;
        M->NumParams = static_cast<uint32_t>(MC.Params.size());
        MethodOf.insert(const_cast<MethodCode *>(&MC), M);
      }
    }
    for (const ClassFile &CF : Prog.Classes)
      buildMethodTable(*ensureClass(CF.Cls));
    uint64_t Fused = 0, Instrs = 0;
    for (const ClassFile &CF : Prog.Classes)
      for (const MethodCode &MC : CF.Methods) {
        LMethod *M = *MethodOf.find(const_cast<MethodCode *>(&MC));
        linkMethod(MC, *M, Fused);
        Instrs += M->Code.size();
      }
    StatsRegistry &S = Comp.stats();
    S.add("backend.link.classes", LP.Classes.size());
    S.add("backend.link.methods", LP.Methods.size());
    S.add("backend.link.instrs", Instrs);
    S.add("backend.link.superinstrs", Fused);
    S.add("backend.link.callSites", LP.CallSites.size());
    S.add("backend.link.fieldSites", LP.FieldSites.size());
    return std::move(LP);
  }

private:
  const ClassFile *fileOf(ClassSymbol *Cls) {
    const ClassFile **F = FileOf.find(Cls);
    return F ? *F : nullptr;
  }

  static ClassSymbol *nonTraitSuper(ClassSymbol *Cls) {
    for (const Type *P : Cls->parents())
      if (ClassSymbol *PC = P->classSymbol())
        if (!PC->isTrait())
          return PC;
    return nullptr;
  }

  static DefaultKind defaultKind(const Type *Ty) {
    if (!Ty)
      return DefaultKind::Null;
    if (Ty->isPrim(PrimKind::Int))
      return DefaultKind::Int0;
    if (Ty->isPrim(PrimKind::Boolean))
      return DefaultKind::False;
    if (Ty->isPrim(PrimKind::Double))
      return DefaultKind::Dbl0;
    if (Ty->isUnit())
      return DefaultKind::Unit;
    return DefaultKind::Null;
  }

  void addField(LClass &LC, Symbol *FieldSym) {
    if (LC.FieldSlotBySym.find(FieldSym))
      return; // first occurrence wins, like the interpreter's field map
    uint32_t Slot = static_cast<uint32_t>(LC.FieldSyms.size());
    LC.FieldSyms.push_back(FieldSym);
    LC.FieldDefaults.push_back(defaultKind(FieldSym->info()));
    LC.FieldSlotBySym.insert(FieldSym, Slot + 1);
    LC.FieldSlotByName.insertIfAbsent(FieldSym->name().ordinal(), Slot + 1);
  }

  /// The interpreter's objectShell field walk: own declared fields, then
  /// parents depth-first (traits included).
  void addFieldsOf(LClass &LC, ClassSymbol *Cls) {
    if (const ClassFile *CF = fileOf(Cls))
      for (Symbol *F : CF->Fields)
        addField(LC, F);
    for (const Type *P : Cls->parents())
      if (ClassSymbol *PC = P->classSymbol())
        addFieldsOf(LC, PC);
  }

  LClass *ensureClass(ClassSymbol *Cls) {
    if (LClass **Found = LP.ClassBySym.find(Cls))
      return *Found;
    LP.Classes.push_back(std::make_unique<LClass>());
    LClass *LC = LP.Classes.back().get();
    LC->Cls = Cls;
    LC->Index = static_cast<uint32_t>(LP.Classes.size() - 1);
    LC->Builtin = Cls->is(SymFlag::Builtin);
    LC->IsCase = Cls->is(SymFlag::Case);
    LC->IsThrowable = Cls->derivesFrom(Comp.syms().throwableClass());
    LP.ClassBySym.insert(Cls, LC);
    SymbolTable &Syms = Comp.syms();
    if (LC->Builtin) {
      // builtinNew shapes: the one special payload field, when present.
      Symbol *Special = nullptr;
      if (Cls == Syms.throwableClass())
        Special = Cls->findDeclaredMember(Syms.std().Message);
      else if (Cls == Syms.nonLocalReturnClass())
        Special = Cls->findDeclaredMember(Syms.std().Value);
      else
        Special = Cls->findDeclaredMember(Syms.std().Elem);
      if (Special)
        addField(*LC, Special);
    } else {
      addFieldsOf(*LC, Cls);
    }
    // Resolution the VM's show/equals mirrors need, done once here.
    for (Symbol *F : Cls->caseFields())
      LC->CaseFieldSlots.push_back(fieldSlotLikeInterp(*LC, F));
    if (LC->IsThrowable)
      if (Symbol *Msg = Syms.throwableClass()->findDeclaredMember(
              Syms.std().Message))
        LC->MsgSlot = fieldSlotLikeInterp(*LC, Msg);
    return LC;
  }

  /// caseFieldValue's resolution order: exact symbol, then first
  /// same-named field, else absent (-1).
  static int32_t fieldSlotLikeInterp(LClass &LC, Symbol *Field) {
    if (uint32_t *S = LC.FieldSlotBySym.find(Field))
      return static_cast<int32_t>(*S - 1);
    if (uint32_t *S = LC.FieldSlotByName.find(Field->name().ordinal()))
      return static_cast<int32_t>(*S - 1);
    return -1;
  }

  void buildMethodTable(LClass &LC) {
    // findMethod's walk, hoisted: subclass first along the non-trait
    // super chain; within a class, declaration order (first wins).
    for (ClassSymbol *Walk = LC.Cls; Walk; Walk = nonTraitSuper(Walk)) {
      const ClassFile *CF = fileOf(Walk);
      if (!CF)
        continue;
      for (const MethodCode &MC : CF->Methods) {
        LMethod *M = *MethodOf.find(const_cast<MethodCode *>(&MC));
        LC.Methods.insertIfAbsent(MC.Method->name().ordinal(), M);
      }
    }
    if (const ClassFile *CF = fileOf(LC.Cls))
      for (const MethodCode &MC : CF->Methods)
        if (MC.Method->is(SymFlag::Constructor)) {
          LC.Ctor = *MethodOf.find(const_cast<MethodCode *>(&MC));
          break;
        }
  }

  /// Copies \p S into a new ConstString block of the linked program.
  const VMString *newStr(std::string_view S) {
    auto Block = std::make_unique_for_overwrite<char[]>(sizeof(VMString) +
                                                         S.size());
    auto *P = reinterpret_cast<VMString *>(Block.get());
    P->Tag = CellTag::ConstString;
    P->Pad = 0;
    P->Len = S.size();
    std::memcpy(Block.get() + sizeof(VMString), S.data(), S.size());
    LP.StrPool.push_back(std::move(Block));
    return P;
  }

  /// One block per Program pool entry: CodeGen deduplicated the texts,
  /// so the entry's address is the key.
  const VMString *constStr(StrRef S) {
    if (const VMString **Found = ConstStrs.find(S.entry()))
      return *Found;
    const VMString *P = newStr(S.str());
    ConstStrs.insert(S.entry(), P);
    return P;
  }

  LInstr errInstr(const std::string &Msg) {
    LInstr L;
    L.Code = LOp::LinkError;
    L.Imm.P = newStr(Msg);
    return L;
  }

  uint32_t makeFieldSite(Symbol *Sym) {
    FieldSite FS;
    FS.Sym = Sym;
    FS.NameOrd = Sym->name().ordinal();
    LP.FieldSites.push_back(FS);
    return static_cast<uint32_t>(LP.FieldSites.size() - 1);
  }

  uint32_t makeCallSite(Symbol *Sym) {
    SymbolTable &Syms = Comp.syms();
    CallSite CS;
    CS.Sym = Sym;
    CS.NameOrd = Sym->name().ordinal();
    Name N = Sym->name();
    if (N == Syms.std().ToString)
      CS.NC = CallSite::IsToString;
    else if (N == Syms.std().EqEq || N == Syms.std().Equals)
      CS.NC = CallSite::IsEquals;
    else if (N == Syms.std().BangEq)
      CS.NC = CallSite::IsBangEq;
    LP.CallSites.push_back(CS);
    return static_cast<uint32_t>(LP.CallSites.size() - 1);
  }

  /// Routes one invoke instruction. The checks mirror evalApply's order
  /// exactly — the sym-keyed intrinsics come before super/virtual
  /// dispatch, so e.g. an InvokeSuper on a builtin Object method lands on
  /// the value opcodes, just like the tree interpreter.
  LInstr routeInvoke(const Instr &I) {
    SymbolTable &Syms = Comp.syms();
    Symbol *Sym = I.Sym;
    LInstr L;
    L.B = I.ArgCount;
    if (!Sym)
      return errInstr("cannot call this function shape");
    // 1. Primitive operators (eager here: && / || survivors).
    if (Syms.isPrimOp(Sym)) {
      PrimOpKind K = Syms.primOpKindOf(Sym->name());
      L.Code = LOp::PrimOpEager;
      L.A = static_cast<uint32_t>(static_cast<int8_t>(K));
      return L;
    }
    // 2. Array intrinsics.
    if (Sym == Syms.arrayApply()) {
      L.Code = LOp::ArrayLoad;
      return L;
    }
    if (Sym == Syms.arrayUpdate()) {
      L.Code = LOp::ArrUpdateV;
      return L;
    }
    if (Sym == Syms.arrayLength()) {
      L.Code = LOp::ArrayLength;
      return L;
    }
    // 3. String + / length (other string-owned syms fall through, like
    // the interpreter's non-returning if).
    if (Sym->owner() == Syms.stringClass()) {
      if (Sym->name().text() == "+") {
        L.Code = LOp::Concat;
        return L;
      }
      if (Sym->name() == Syms.std().Length) {
        L.Code = LOp::StrLen;
        return L;
      }
    }
    // 4. Runtime.equals.
    if (Sym == Syms.runtimeEqualsMethod()) {
      L.Code = LOp::RuntimeEq;
      return L;
    }
    // 5. Predef printing.
    if (Sym == Syms.printlnMethod()) {
      L.Code = LOp::Println;
      return L;
    }
    if (Sym == Syms.printMethod()) {
      L.Code = LOp::Print;
      return L;
    }
    // 6. Object methods on arbitrary values.
    if (Sym->owner() == Syms.objectClass() && Sym->is(SymFlag::Builtin)) {
      Name N = Sym->name();
      if (N == Syms.std().EqEq || N == Syms.std().Equals) {
        L.Code = LOp::ValueEq;
        return L;
      }
      if (N == Syms.std().BangEq) {
        L.Code = LOp::ValueNe;
        return L;
      }
      if (N == Syms.std().ToString) {
        L.Code = LOp::ValueToString;
        return L;
      }
      if (N == Syms.std().GetClass) {
        L.Code = LOp::GetClassV;
        return L;
      }
    }
    // 7. Super calls: resolve the target method statically.
    if (I.Code == Op::InvokeSuper) {
      ClassSymbol *Target = I.SuperCls;
      if (!Target)
        return errInstr("missing super method " + Sym->name().str());
      if (Sym->is(SymFlag::Constructor)) {
        if (Target->is(SymFlag::Builtin)) {
          L.Code = LOp::InvokeSuperUnit;
          return L;
        }
        LClass *LC = ensureClass(Target);
        if (LC->Ctor) {
          L.Code = LOp::InvokeSuperM;
          L.Imm.P = LC->Ctor;
          return L;
        }
        L.Code = LOp::InvokeSuperUnit;
        return L;
      }
      LClass *LC = ensureClass(Target);
      if (LMethod **M = LC->Methods.find(Sym->name().ordinal())) {
        L.Code = LOp::InvokeSuperM;
        L.Imm.P = *M;
        return L;
      }
      return errInstr("missing super method " + Sym->name().str());
    }
    // 8. Plain virtual dispatch through an inline cache.
    L.Code = LOp::InvokeVirt;
    L.A = makeCallSite(Sym);
    return L;
  }

  void linkMethod(const MethodCode &MC, LMethod &M, uint64_t &Fused) {
    StackDepths Depths;
    if (!verifyMethod(MC, LP.Failures, &Depths))
      return; // Failures non-empty: the VM refuses the whole program
    M.MaxStack = Depths.MaxStack;

    // Frame slots: 0 = this, then declared params, then locals in
    // first-reference order.
    FlatPtrMap<Symbol *, uint32_t> SlotOf; // slot + 1
    uint32_t NextSlot = 1;
    for (Symbol *P : MC.Params) {
      SlotOf.insert(P, NextSlot + 1);
      ++NextSlot;
    }
    auto SlotFor = [&](Symbol *Sym) -> uint32_t {
      if (uint32_t *S = SlotOf.find(Sym))
        return *S - 1;
      uint32_t Slot = NextSlot++;
      SlotOf.insert(Sym, Slot + 1);
      M.LocalDefaults.push_back(defaultKind(Sym->info()));
      return Slot;
    };
    auto IsSelfField = [&](Symbol *Sym) {
      // A symbol the frame can never hold: owned by a class (field /
      // accessor target). The interpreter reaches these through Self
      // after a frame miss; params/locals are method-owned, so link-time
      // classification agrees with the runtime-order lookup.
      return !SlotOf.find(Sym) && Sym->owner() && Sym->owner()->isClass();
    };

    M.Code.reserve(MC.Code.size());
    for (const Instr &I : MC.Code) {
      LInstr L;
      switch (I.Code) {
      case Op::Nop:
        L.Code = LOp::Nop;
        break;
      case Op::ConstUnit:
        L.Code = LOp::ConstUnit;
        break;
      case Op::ConstBool:
        L.Code = LOp::ConstBool;
        L.Imm.I = I.Imm;
        break;
      case Op::ConstInt:
        L.Code = LOp::ConstInt;
        L.Imm.I = I.Imm;
        break;
      case Op::ConstDouble:
        L.Code = LOp::ConstDouble;
        L.Imm.D = I.Num;
        break;
      case Op::ConstStr:
        L.Code = LOp::ConstStr;
        L.Imm.P = constStr(I.Str);
        break;
      case Op::ConstNull:
        L.Code = LOp::ConstNull;
        break;
      case Op::ConstClass:
        L.Code = LOp::ConstClass;
        L.Imm.P = I.TypeRef;
        break;
      case Op::Load:
        if (!I.Sym) {
          L.Code = LOp::LoadSlot;
          L.A = 0;
        } else if (IsSelfField(I.Sym)) {
          L.Code = LOp::LoadSelfField;
          L.A = makeFieldSite(I.Sym);
        } else {
          L.Code = LOp::LoadSlot;
          L.A = SlotFor(I.Sym);
        }
        break;
      case Op::Store:
        if (IsSelfField(I.Sym)) {
          L.Code = LOp::StoreSelfField;
          L.A = makeFieldSite(I.Sym);
        } else {
          L.Code = LOp::StoreSlot;
          L.A = SlotFor(I.Sym);
        }
        break;
      case Op::GetField:
        L.Code = LOp::GetField;
        L.A = makeFieldSite(I.Sym);
        break;
      case Op::PutField:
        L.Code = LOp::PutField;
        L.A = makeFieldSite(I.Sym);
        break;
      case Op::GetModule: {
        ClassSymbol *Cls =
            I.Sym && I.Sym->info() ? I.Sym->info()->classSymbol() : nullptr;
        if (!Cls) {
          L = errInstr("module without a class");
          break;
        }
        L.Code = LOp::GetModule;
        L.A = ensureClass(Cls)->Index;
        break;
      }
      case Op::NewObject: {
        auto *Cls = dyn_cast_or_null<ClassSymbol>(I.Sym);
        if (!Cls) {
          L = errInstr("new of non-class type");
          break;
        }
        LClass *LC = ensureClass(Cls);
        L.Code = Cls->is(SymFlag::Builtin) ? LOp::NewBuiltin : LOp::NewObject;
        L.A = LC->Index;
        L.B = I.ArgCount;
        break;
      }
      case Op::InvokeVirt:
      case Op::InvokeSuper:
        L = routeInvoke(I);
        break;
      case Op::InvokeStatic:
        L = errInstr("invoke-static is never generated");
        break;
      case Op::InstanceOf:
        L.Code = LOp::InstanceOf;
        L.Imm.P = I.TypeRef;
        break;
      case Op::CheckCast:
        L.Code = LOp::CheckCast;
        L.Imm.P = I.TypeRef;
        break;
      case Op::NewArray:
        L.Code = LOp::NewArray;
        L.Imm.P = I.TypeRef;
        L.B = static_cast<uint16_t>(defaultKind(I.TypeRef));
        break;
      case Op::ArrayLoad:
        L.Code = LOp::ArrayLoad;
        break;
      case Op::ArrayStore:
        L.Code = LOp::ArrayStore;
        break;
      case Op::ArrayLength:
        L.Code = LOp::ArrayLength;
        break;
      case Op::Add: L.Code = LOp::Add; break;
      case Op::Sub: L.Code = LOp::Sub; break;
      case Op::Mul: L.Code = LOp::Mul; break;
      case Op::Div: L.Code = LOp::Div; break;
      case Op::Rem: L.Code = LOp::Rem; break;
      case Op::Neg: L.Code = LOp::Neg; break;
      case Op::CmpLt: L.Code = LOp::CmpLt; break;
      case Op::CmpLe: L.Code = LOp::CmpLe; break;
      case Op::CmpGt: L.Code = LOp::CmpGt; break;
      case Op::CmpGe: L.Code = LOp::CmpGe; break;
      case Op::CmpEq: L.Code = LOp::CmpEq; break;
      case Op::CmpNe: L.Code = LOp::CmpNe; break;
      case Op::Not: L.Code = LOp::Not; break;
      case Op::Concat: L.Code = LOp::Concat; break;
      case Op::Jump:
        L.Code = LOp::Jump;
        L.A = static_cast<uint32_t>(I.Target);
        break;
      case Op::JumpIfFalse:
        L.Code = LOp::JumpIfFalse;
        L.A = static_cast<uint32_t>(I.Target);
        break;
      case Op::AThrow:
        L.Code = LOp::AThrow;
        break;
      case Op::ReturnValue:
        L.Code = LOp::ReturnValue;
        break;
      case Op::Pop:
        L.Code = LOp::Pop;
        break;
      case Op::Dup:
        L.Code = LOp::Dup;
        break;
      }
      M.Code.push_back(L);
    }
    M.NumSlots = NextSlot;

    M.Handlers.clear();
    for (size_t H = 0; H < MC.Handlers.size(); ++H) {
      const Handler &In = MC.Handlers[H];
      LHandler LH;
      LH.Start = In.Start;
      LH.End = In.End;
      LH.Entry = In.Entry;
      LH.CatchType = In.CatchType;
      LH.IsFinally = In.IsFinally;
      LH.Depth = Depths.HandlerDepth[H];
      M.Handlers.push_back(LH);
    }

    if (Opts.Superinstructions) {
      // To fixpoint: second-order rules consume first-pass output
      // (LoadConstInt;Add -> LoadConstAdd), and the stream shrinks
      // monotonically so this terminates.
      while (uint64_t N = fuseMethod(M))
        Fused += N;
    }
  }

  /// Pairwise peephole over one linked method. Never fuses across a
  /// leader (jump target or handler boundary): a fused instruction must
  /// be unobservable to control flow and to the unwinder.
  uint64_t fuseMethod(LMethod &M) {
    const size_t N = M.Code.size();
    std::vector<bool> Leader(N + 1, false);
    Leader[0] = true;
    for (const LInstr &L : M.Code)
      if (L.Code == LOp::Jump || L.Code == LOp::JumpIfFalse)
        Leader[L.A] = true;
    for (const LHandler &H : M.Handlers) {
      Leader[H.Start] = true;
      Leader[H.End] = true;
      Leader[H.Entry] = true;
    }

    std::vector<LInstr> Out;
    Out.reserve(N);
    std::vector<uint32_t> OldToNew(N + 1, 0);
    uint64_t Fused = 0;
    for (size_t I = 0; I < N;) {
      OldToNew[I] = static_cast<uint32_t>(Out.size());
      bool DidFuse = false;
      if (I + 1 < N && !Leader[I + 1]) {
        const LInstr &A = M.Code[I];
        const LInstr &B = M.Code[I + 1];
        // Degenerate fusion: push-unit-then-discard (every statement-
        // position assignment or unit call compiles to it; the pair is
        // ~20% of dynamic dispatches on the mega-methods family) fuses
        // to *zero* instructions. Neither op can throw or be observed,
        // so eliding the pair is safe anywhere control cannot enter
        // between them; jumps TO the pair land on whatever follows.
        if (A.Code == LOp::ConstUnit && B.Code == LOp::Pop) {
          OldToNew[I + 1] = static_cast<uint32_t>(Out.size());
          ++Fused;
          I += 2;
          continue;
        }
        for (const FuseRule &R : FuseRules) {
          if (A.Code != R.First || B.Code != R.Second)
            continue;
          LInstr F;
          F.Code = R.Fused;
          switch (R.Fused) {
          case LOp::LoadLoad:
            if (B.A > 0xFFFF)
              continue; // second slot must pack into B
            F.A = A.A;
            F.B = static_cast<uint16_t>(B.A);
            break;
          case LOp::LoadConstInt:
            F.A = A.A;
            F.Imm.I = B.Imm.I;
            break;
          case LOp::LoadGetField:
            if (A.A > 0xFFFF)
              continue; // slot must pack into B (site keeps A)
            F.A = B.A;
            F.B = static_cast<uint16_t>(A.A);
            break;
          case LOp::LoadConstAdd:
          case LOp::LoadConstSub:
          case LOp::LoadConstMul:
          case LOp::LoadConstDiv:
          case LOp::LoadConstRem:
            F.A = A.A; // the LoadConstInt's slot + constant
            F.Imm.I = A.Imm.I;
            break;
          default: // compare-and-branch and arith-store: B's operand
            F.A = B.A;
            break;
          }
          OldToNew[I + 1] = static_cast<uint32_t>(Out.size());
          Out.push_back(F);
          ++Fused;
          I += 2;
          DidFuse = true;
          break;
        }
      }
      if (!DidFuse) {
        Out.push_back(M.Code[I]);
        ++I;
      }
    }
    OldToNew[N] = static_cast<uint32_t>(Out.size());

    for (LInstr &L : Out)
      switch (L.Code) {
      case LOp::Jump:
      case LOp::JumpIfFalse:
      case LOp::CmpLtJF:
      case LOp::CmpLeJF:
      case LOp::CmpGtJF:
      case LOp::CmpGeJF:
      case LOp::CmpEqJF:
      case LOp::CmpNeJF:
        L.A = OldToNew[L.A];
        break;
      default:
        break;
      }
    for (LHandler &H : M.Handlers) {
      H.Start = OldToNew[H.Start];
      H.End = OldToNew[H.End];
      H.Entry = OldToNew[H.Entry];
    }
    M.Code = std::move(Out);
    return Fused;
  }

  const Program &Prog;
  CompilerContext &Comp;
  const LinkOptions &Opts;
  LinkedProgram LP;
  FlatPtrMap<ClassSymbol *, const ClassFile *> FileOf;
  FlatPtrMap<MethodCode *, LMethod *> MethodOf;
  FlatPtrMap<const std::string *, const VMString *> ConstStrs;
};

} // namespace

LinkedProgram mpc::linkProgram(const Program &Prog, CompilerContext &Comp,
                               const LinkOptions &Opts) {
  return Linker(Prog, Comp, Opts).run();
}
