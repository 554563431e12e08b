#include "backend/CodeGen.h"

#include "ast/TreeUtils.h"

#include <cassert>
#include <cstdint>
#include <map>

using namespace mpc;

namespace {
/// Scratch buffers one generateCode call reuses for every method: a
/// method is emitted here, then copied out at its exact size.
struct MethodScratch {
  std::vector<Instr> Code;
  std::vector<Handler> Handlers;
};

/// Per-method bytecode emitter.
class MethodEmitter {
public:
  MethodEmitter(CompilerContext &Comp, StringPool &Strings,
                MethodScratch &Out)
      : Comp(Comp), Strings(Strings), Out(Out) {
    Out.Code.clear();
    Out.Handlers.clear();
  }

  /// Emits \p Body; returns false when a call in it has more arguments
  /// than an instruction holds (reported as a compile error).
  bool emitBody(Tree *Body) {
    genExpr(Body);
    emit(Op::ReturnValue);
    return !ArgOverflow;
  }

  /// Locals the body declared (ValDefs in blocks).
  uint32_t NumLocals = 0;

private:
  uint32_t here() const { return static_cast<uint32_t>(Out.Code.size()); }

  Instr &emit(Op Code) {
    Instr I;
    I.Code = Code;
    Out.Code.push_back(I);
    return Out.Code.back();
  }

  /// Emits a call that pops \p NumArgs arguments. This is the one place
  /// an argument count narrows to Instr::ArgCount: a call that does not
  /// fit is a compile error, never a silently truncated count.
  Instr &emitCall(Op Code, Symbol *Sym, unsigned NumArgs, Tree *Call) {
    if (NumArgs > UINT16_MAX) {
      Comp.diags().error(Call->loc(),
                         "call passes " + std::to_string(NumArgs) +
                             " arguments; bytecode allows at most " +
                             std::to_string(UINT16_MAX));
      ArgOverflow = true;
      NumArgs = 0;
    }
    Instr &I = emit(Code);
    I.Sym = Sym;
    I.ArgCount = static_cast<uint16_t>(NumArgs);
    return I;
  }

  void genStat(Tree *T) {
    genExpr(T);
    emit(Op::Pop);
  }

  /// The type's default value (the interpreter's defaultValue) as a
  /// constant push.
  void emitDefault(const Type *Ty) {
    if (Ty && Ty->isPrim(PrimKind::Int))
      emit(Op::ConstInt).Imm = 0;
    else if (Ty && Ty->isPrim(PrimKind::Boolean))
      emit(Op::ConstBool).Imm = 0;
    else if (Ty && Ty->isPrim(PrimKind::Double))
      emit(Op::ConstDouble).Num = 0;
    else if (Ty && Ty->isUnit())
      emit(Op::ConstUnit);
    else
      emit(Op::ConstNull);
  }

  /// True for the primitive operator symbols; maps the operator's dense
  /// kind (no name-text comparisons) to an opcode. && and || have no
  /// opcode: the frontend desugars short-circuiting into If, so a
  /// surviving symbol goes through the generic invoke path (evaluated
  /// eagerly there, like the tree interpreter).
  bool tryPrimOp(Symbol *Sym, Op &Code) {
    if (!Comp.syms().isPrimOp(Sym))
      return false;
    switch (Comp.syms().primOpKindOf(Sym->name())) {
    case PrimOpKind::Add:   Code = Op::Add;   return true;
    case PrimOpKind::Sub:   Code = Op::Sub;   return true;
    case PrimOpKind::Mul:   Code = Op::Mul;   return true;
    case PrimOpKind::Div:   Code = Op::Div;   return true;
    case PrimOpKind::Rem:   Code = Op::Rem;   return true;
    case PrimOpKind::CmpLt: Code = Op::CmpLt; return true;
    case PrimOpKind::CmpLe: Code = Op::CmpLe; return true;
    case PrimOpKind::CmpGt: Code = Op::CmpGt; return true;
    case PrimOpKind::CmpGe: Code = Op::CmpGe; return true;
    case PrimOpKind::CmpEq: Code = Op::CmpEq; return true;
    case PrimOpKind::CmpNe: Code = Op::CmpNe; return true;
    case PrimOpKind::Neg:   Code = Op::Neg;   return true;
    case PrimOpKind::Not:   Code = Op::Not;   return true;
    default:
      return false;
    }
  }

  void genExpr(Tree *T) {
    assert(T && "codegen on null tree");
    SymbolTable &Syms = Comp.syms();
    switch (T->kind()) {
    case TreeKind::Literal: {
      const Constant &C = cast<Literal>(T)->value();
      switch (C.kind()) {
      case Constant::Unit:
        emit(Op::ConstUnit);
        break;
      case Constant::Bool:
        emit(Op::ConstBool).Imm = C.intValue();
        break;
      case Constant::Int:
        emit(Op::ConstInt).Imm = C.intValue();
        break;
      case Constant::Double:
        emit(Op::ConstDouble).Num = C.doubleValue();
        break;
      case Constant::Str:
        emit(Op::ConstStr).Str = Strings.intern(C.stringValue().text());
        break;
      case Constant::Null:
        emit(Op::ConstNull);
        break;
      case Constant::Clazz:
        emit(Op::ConstClass).TypeRef = C.clazzValue();
        break;
      }
      return;
    }
    case TreeKind::Ident: {
      Symbol *Sym = cast<Ident>(T)->sym();
      if (Sym->is(SymFlag::Module)) {
        emit(Op::GetModule).Sym = Sym;
        return;
      }
      emit(Op::Load).Sym = Sym;
      return;
    }
    case TreeKind::This:
    case TreeKind::Super:
      emit(Op::Load).Sym = nullptr; // local slot 0 == this
      return;
    case TreeKind::Select: {
      auto *Sel = cast<Select>(T);
      genExpr(Sel->qual());
      emit(Op::GetField).Sym = Sel->sym();
      return;
    }
    case TreeKind::Typed: {
      genExpr(cast<Typed>(T)->expr());
      emit(Op::CheckCast).TypeRef = T->type();
      return;
    }
    case TreeKind::TypeApply: {
      // Only the fully-applied test/cast intrinsics survive to here; the
      // enclosing Apply handles them. A bare TypeApply is a pipeline bug.
      assert(false && "bare TypeApply reached the backend");
      return;
    }
    case TreeKind::Apply:
      genApply(cast<Apply>(T));
      return;
    case TreeKind::New: {
      auto *N = cast<New>(T);
      for (unsigned I = 0; I < N->numArgs(); ++I)
        genExpr(N->arg(I));
      emitCall(Op::NewObject, N->classTy()->classSymbol(), N->numArgs(), N);
      return;
    }
    case TreeKind::Assign: {
      auto *A = cast<Assign>(T);
      if (auto *Sel = dyn_cast<Select>(A->lhs())) {
        genExpr(Sel->qual());
        genExpr(A->rhs());
        emit(Op::PutField).Sym = Sel->sym();
      } else if (auto *Id = dyn_cast<Ident>(A->lhs())) {
        genExpr(A->rhs());
        emit(Op::Store).Sym = Id->sym();
      } else {
        assert(false && "invalid assignment target in backend");
      }
      emit(Op::ConstUnit);
      return;
    }
    case TreeKind::Block: {
      auto *B = cast<Block>(T);
      for (unsigned I = 0; I < B->numStats(); ++I) {
        Tree *Stat = B->stat(I);
        if (auto *VD = dyn_cast<ValDef>(Stat)) {
          if (VD->rhs())
            genExpr(VD->rhs());
          else
            emitDefault(VD->sym()->info()); // interpreter binds the
                                            // type default here
          emit(Op::Store).Sym = VD->sym();
          ++NumLocals;
          continue;
        }
        assert(!isa<DefDef>(Stat) &&
               "local method reached the backend (LambdaLift missed it)");
        genStat(Stat);
      }
      genExpr(B->expr());
      return;
    }
    case TreeKind::If: {
      // Branch targets are patched via indices (instruction storage may
      // reallocate while children are generated).
      auto *I = cast<If>(T);
      genExpr(I->cond());
      uint32_t BrIdx = here();
      emit(Op::JumpIfFalse);
      genExpr(I->thenp());
      uint32_t EndIdx = here();
      emit(Op::Jump);
      Out.Code[BrIdx].Target = static_cast<int32_t>(here());
      genExpr(I->elsep());
      Out.Code[EndIdx].Target = static_cast<int32_t>(here());
      return;
    }
    case TreeKind::WhileDo: {
      auto *W = cast<WhileDo>(T);
      uint32_t Start = here();
      genExpr(W->cond());
      uint32_t BrIdx = here();
      emit(Op::JumpIfFalse);
      genStat(W->body());
      emit(Op::Jump).Target = static_cast<int32_t>(Start);
      Out.Code[BrIdx].Target = static_cast<int32_t>(here());
      emit(Op::ConstUnit);
      return;
    }
    case TreeKind::Labeled: {
      auto *L = cast<Labeled>(T);
      LabelStarts[L->label()] = {here(), Finalizers.size()};
      genExpr(L->body());
      return;
    }
    case TreeKind::Goto: {
      auto It = LabelStarts.find(cast<Goto>(T)->label());
      assert(It != LabelStarts.end() && "jump to unseen label");
      // A backward jump crossing try bodies entered since the label runs
      // their finalizers first (the interpreter's ContinueSignal unwinds
      // through evalTry's catch-all, which does the same).
      for (size_t D = Finalizers.size(); D > It->second.FinalizerDepth; --D)
        genStat(Finalizers[D - 1]);
      emit(Op::Jump).Target = static_cast<int32_t>(It->second.Pc);
      return;
    }
    case TreeKind::Return: {
      auto *R = cast<Return>(T);
      if (R->expr())
        genExpr(R->expr());
      else
        emit(Op::ConstUnit);
      // A return unwinding out of enclosing try bodies runs their
      // finalizers innermost-first, with the return value parked on the
      // stack (mirrors the interpreter: ReturnSignal hits evalTry's
      // catch-all, which runs the finalizer and rethrows).
      for (size_t D = Finalizers.size(); D > 0; --D)
        genStat(Finalizers[D - 1]);
      emit(Op::ReturnValue);
      return;
    }
    case TreeKind::Throw:
      genExpr(cast<Throw>(T)->expr());
      emit(Op::AThrow);
      return;
    case TreeKind::Try: {
      auto *Y = cast<Try>(T);
      uint32_t Start = here();
      // While generating the body, returns and label-crossing gotos must
      // inline this try's finalizer; catch bodies must not (a throwing
      // matched-catch body skips the finalizer in the interpreter too).
      if (Y->finalizer())
        Finalizers.push_back(Y->finalizer());
      genExpr(Y->body());
      if (Y->finalizer())
        Finalizers.pop_back();
      // Jumps to the code after the whole try; patched by index below
      // (never via a sentinel scan — a nested try inside a later catch
      // body must not steal this try's pending patches).
      std::vector<uint32_t> EndJumps;
      EndJumps.push_back(here());
      emit(Op::Jump);
      uint32_t End = here();
      for (unsigned I = 0; I < Y->numCatches(); ++I) {
        auto *C = cast<CaseDef>(Y->catchAt(I));
        Handler H;
        H.Start = Start;
        H.End = End;
        H.Entry = here();
        // Simple catch shapes: e @ (_: T) / e @ _ / _: T.
        Symbol *Binder = nullptr;
        const Type *CatchTy = Comp.syms().throwableType();
        Tree *Pat = C->pat();
        if (auto *B = dyn_cast<Bind>(Pat)) {
          Binder = B->sym();
          Pat = B->pat();
        }
        if (auto *Ty = dyn_cast_or_null<Typed>(Pat))
          CatchTy = Ty->type();
        H.CatchType = CatchTy;
        Out.Handlers.push_back(H);
        // Handler body: exception value is on the stack.
        if (Binder)
          emit(Op::Store).Sym = Binder;
        else
          emit(Op::Pop);
        genExpr(C->body());
        if (I + 1 < Y->numCatches() || Y->finalizer()) {
          EndJumps.push_back(here());
          emit(Op::Jump);
        }
      }
      // Finally route: a catch-all handler over the body range that runs
      // the finalizer with the in-flight exception parked on the stack,
      // then rethrows it. It is last in the table, so typed catches win
      // on the exceptions they match and only the rest unwind through
      // here — exactly the interpreter's evalTry ordering.
      if (Y->finalizer()) {
        Handler H;
        H.Start = Start;
        H.End = End;
        H.Entry = here();
        H.CatchType = nullptr;
        H.IsFinally = true;
        Out.Handlers.push_back(H);
        genStat(Y->finalizer());
        emit(Op::AThrow);
      }
      for (uint32_t J : EndJumps)
        Out.Code[J].Target = static_cast<int32_t>(here());
      if (Y->finalizer()) {
        genStat(Y->finalizer());
      }
      return;
    }
    case TreeKind::SeqLiteral: {
      auto *S = cast<SeqLiteral>(T);
      emit(Op::ConstInt).Imm = S->numKids();
      emit(Op::NewArray).TypeRef = S->elemType();
      for (unsigned I = 0; I < S->numKids(); ++I) {
        emit(Op::Dup);
        emit(Op::ConstInt).Imm = I;
        genExpr(S->kid(I));
        emit(Op::ArrayStore);
      }
      return;
    }
    default:
      assert(false && "unlowered tree kind reached the backend");
      emit(Op::ConstUnit);
      return;
    }
    (void)Syms;
  }

  void genApply(Apply *T) {
    SymbolTable &Syms = Comp.syms();
    Tree *Fun = T->fun();

    // isInstanceOf / asInstanceOf intrinsics.
    if (auto *TApp = dyn_cast<TypeApply>(Fun)) {
      auto *Sel = cast<Select>(TApp->fun());
      genExpr(Sel->qual());
      if (Sel->sym() == Syms.isInstanceOfMethod()) {
        emit(Op::InstanceOf).TypeRef = TApp->typeArgs()[0];
        return;
      }
      if (Sel->sym() == Syms.asInstanceOfMethod()) {
        emit(Op::CheckCast).TypeRef = TApp->typeArgs()[0];
        return;
      }
      // Runtime.newArray[T](n).
      if (Sel->sym() == Syms.newArrayMethod()) {
        emit(Op::Pop); // module reference unused
        genExpr(T->arg(0));
        emit(Op::NewArray).TypeRef = TApp->typeArgs()[0];
        return;
      }
      assert(false && "unknown type-applied intrinsic in backend");
      return;
    }

    auto *Sel = dyn_cast<Select>(Fun);
    if (Sel) {
      Symbol *Sym = Sel->sym();
      // Primitive operators become single instructions.
      Op Code;
      if (tryPrimOp(Sym, Code)) {
        genExpr(Sel->qual());
        for (unsigned I = 0; I < T->numArgs(); ++I)
          genExpr(T->arg(I));
        emit(Code);
        return;
      }
      // Array intrinsics.
      if (Sym == Syms.arrayApply()) {
        genExpr(Sel->qual());
        genExpr(T->arg(0));
        emit(Op::ArrayLoad);
        return;
      }
      if (Sym == Syms.arrayUpdate()) {
        genExpr(Sel->qual());
        genExpr(T->arg(0));
        genExpr(T->arg(1));
        emit(Op::ArrayStore);
        emit(Op::ConstUnit);
        return;
      }
      if (Sym == Syms.arrayLength()) {
        genExpr(Sel->qual());
        emit(Op::ArrayLength);
        return;
      }
      // String concatenation.
      if (Sym->owner() == Syms.stringClass() &&
          Sym->name().text() == "+") {
        genExpr(Sel->qual());
        genExpr(T->arg(0));
        emit(Op::Concat);
        return;
      }
      // Super (incl. parent constructor) calls dispatch statically.
      if (auto *Sup = dyn_cast<Super>(Sel->qual())) {
        genExpr(Sel->qual());
        for (unsigned I = 0; I < T->numArgs(); ++I)
          genExpr(T->arg(I));
        emitCall(Op::InvokeSuper, Sym, T->numArgs(), T).SuperCls =
            Sup->target();
        return;
      }
      // Plain virtual dispatch.
      genExpr(Sel->qual());
      for (unsigned I = 0; I < T->numArgs(); ++I)
        genExpr(T->arg(I));
      emitCall(Op::InvokeVirt, Sym, T->numArgs(), T);
      return;
    }
    assert(false && "unexpected function shape in backend");
  }

  CompilerContext &Comp;
  StringPool &Strings;
  MethodScratch &Out;
  bool ArgOverflow = false;
  struct LabelInfo {
    uint32_t Pc = 0;
    /// Finalizers.size() when the label was defined — a Goto back to it
    /// inlines every finalizer pushed since.
    size_t FinalizerDepth = 0;
  };
  std::map<Symbol *, LabelInfo> LabelStarts;
  /// Finalizer blocks of the try bodies currently being generated,
  /// outermost first.
  std::vector<Tree *> Finalizers;
};

} // namespace

Program mpc::generateCode(const std::vector<CompilationUnit> &Units,
                          CompilerContext &Comp) {
  Program Prog;
  MethodScratch Scratch;
  for (const CompilationUnit &Unit : Units) {
    if (!Unit.Root)
      continue;
    for (const TreePtr &Top : Unit.Root->kids()) {
      auto *CD = dyn_cast_or_null<ClassDef>(Top.get());
      if (!CD)
        continue;
      ClassFile CF;
      CF.Cls = CD->sym();
      for (const TreePtr &Member : CD->kids()) {
        if (!Member)
          continue;
        if (auto *VD = dyn_cast<ValDef>(Member.get())) {
          assert(!VD->rhs() &&
                 "field with initializer reached the backend");
          CF.Fields.push_back(VD->sym());
          continue;
        }
        auto *DD = dyn_cast<DefDef>(Member.get());
        if (!DD || !DD->rhs())
          continue;
        MethodCode MC;
        MC.Method = DD->sym();
        MC.Params.reserve(DD->numParamsTotal());
        for (unsigned I = 0; I < DD->numParamsTotal(); ++I)
          MC.Params.push_back(cast<ValDef>(DD->paramAt(I))->sym());
        MethodEmitter ME(Comp, Prog.Strings, Scratch);
        // A method with an unencodable call keeps an empty body, which
        // the verifier refuses, so it can never be linked and run.
        if (ME.emitBody(DD->rhs())) {
          MC.Code.assign(Scratch.Code.begin(), Scratch.Code.end());
          MC.Handlers.assign(Scratch.Handlers.begin(),
                             Scratch.Handlers.end());
        }
        MC.MaxLocals = DD->numParamsTotal() + 1 + ME.NumLocals;
        CF.Methods.push_back(std::move(MC));
      }
      Prog.Classes.push_back(std::move(CF));
    }
  }
  return Prog;
}
