#include "backend/Interpreter.h"

#include "ast/TreeUtils.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <sstream>

using namespace mpc;

namespace {

struct ObjVal;
struct ArrVal;

/// A runtime value.
struct Value {
  enum K : uint8_t { Unit, Bool, Int, Double, Str, Null, Obj, Arr, Clazz };
  K Kind = Unit;
  int64_t I = 0;
  double D = 0;
  std::shared_ptr<std::string> S;
  std::shared_ptr<ObjVal> O;
  std::shared_ptr<ArrVal> A;
  const Type *Cl = nullptr;

  static Value unit() { return Value(); }
  static Value boolean(bool B) {
    Value V;
    V.Kind = Bool;
    V.I = B;
    return V;
  }
  static Value integer(int64_t N) {
    Value V;
    V.Kind = Int;
    V.I = N;
    return V;
  }
  static Value dbl(double N) {
    Value V;
    V.Kind = Double;
    V.D = N;
    return V;
  }
  static Value str(std::string Text) {
    Value V;
    V.Kind = Str;
    V.S = std::make_shared<std::string>(std::move(Text));
    return V;
  }
  static Value null() {
    Value V;
    V.Kind = Null;
    return V;
  }
  bool truthy() const { return I != 0; }
  double asDouble() const { return Kind == Double ? D : double(I); }
};

struct ObjVal {
  ClassSymbol *Cls = nullptr;
  std::map<Symbol *, Value> Fields;
};

struct ArrVal {
  std::vector<Value> Elems;
};

/// Thrown MiniScala exception (carried as a C++ exception).
struct ThrownValue {
  Value V;
};
/// `return` unwinding.
struct ReturnSignal {
  Symbol *Method;
  Value V;
};
/// `Goto` unwinding to an enclosing Labeled.
struct ContinueSignal {
  Symbol *Label;
};
/// Interpreter-level failure (cast error, missing member, step limit).
struct InterpError {
  std::string Message;
};

using Frame = std::map<Symbol *, Value>;

/// The objects or arrays one interpreter allocated, as weak references.
/// Values are reference-counted, so a guest cycle (two objects that point
/// at each other from a module field) never expires on its own; clear()
/// breaks every cycle by emptying what is still alive. An expired entry
/// keeps its value's block (make_shared puts the count beside the value)
/// until it is pruned, which happens each time the list doubles, so a
/// long run's list stays proportional to its live values.
template <typename T> class Allocations {
public:
  std::shared_ptr<T> make() {
    if (Refs.size() >= PruneAt) {
      std::erase_if(Refs,
                    [](const std::weak_ptr<T> &W) { return W.expired(); });
      PruneAt = std::max<size_t>(MinPrune, 2 * Refs.size());
    }
    auto P = std::make_shared<T>();
    Refs.push_back(P);
    return P;
  }

  /// Empties every live value with \p Clear.
  template <typename F> void clear(F Clear) {
    for (const std::weak_ptr<T> &W : Refs)
      if (std::shared_ptr<T> P = W.lock())
        Clear(*P);
    Refs.clear();
  }

private:
  static constexpr size_t MinPrune = 1024;
  std::vector<std::weak_ptr<T>> Refs;
  size_t PruneAt = MinPrune;
};

} // namespace

class Interpreter::Impl {
public:
  Impl(CompilerContext &Comp, const std::vector<CompilationUnit> &Units,
       uint64_t StepLimit)
      : Comp(Comp), StepLimit(StepLimit) {
    for (const CompilationUnit &U : Units) {
      if (!U.Root)
        continue;
      for (const TreePtr &Top : U.Root->kids())
        if (auto *CD = dyn_cast_or_null<ClassDef>(Top.get()))
          Classes[CD->sym()] = CD;
    }
  }

  ~Impl() {
    Objects.clear([](ObjVal &O) { O.Fields.clear(); });
    Arrays.clear([](ArrVal &A) { A.Elems.clear(); });
  }

  ExecResult runMain(Symbol *Entry, const std::vector<std::string> &Args) {
    ExecResult R;
    Output.clear();
    Steps = 0;
    try {
      Value Module = moduleInstance(cast<ClassSymbol>(Entry->owner()));
      auto ArgArr = Arrays.make();
      for (const std::string &A : Args)
        ArgArr->Elems.push_back(Value::str(A));
      Value ArgsVal;
      ArgsVal.Kind = Value::Arr;
      ArgsVal.A = ArgArr;
      invoke(Module, Entry, {ArgsVal});
    } catch (ThrownValue &TV) {
      R.Uncaught = true;
      R.Error = "uncaught exception: " + show(TV.V);
    } catch (InterpError &IE) {
      R.Uncaught = true;
      R.Error = IE.Message;
    }
    R.Output = Output;
    R.StepsExecuted = Steps;
    return R;
  }

private:
  //===--- infrastructure -------------------------------------------------===//

  void step() {
    if (++Steps > StepLimit)
      throw InterpError{"step limit exceeded"};
    // Cancellation checkpoint: the interpreter is the one backend stage
    // whose runtime is workload-controlled (a hot loop in the program
    // under test runs arbitrarily long), so polling only at phase
    // boundaries would let it blow through a deadline unboundedly. Every
    // 256th step keeps the poll off the hot path while bounding the
    // overshoot; DeadlineExceeded unwinds past run()'s handlers (which
    // catch only guest-level failures) to the service's worker firewall.
    if ((Steps & 255) == 0)
      Comp.checkpoint();
  }

  ClassDef *classDef(ClassSymbol *Cls) {
    auto It = Classes.find(Cls);
    return It == Classes.end() ? nullptr : It->second;
  }

  /// Virtual lookup: the method implementation for `name` starting at
  /// \p Cls (subclass first).
  DefDef *findMethod(ClassSymbol *Cls, Name N) {
    for (ClassSymbol *Walk = Cls; Walk;) {
      if (ClassDef *CD = classDef(Walk)) {
        for (const TreePtr &M : CD->kids())
          if (auto *DD = dyn_cast_or_null<DefDef>(M.get()))
            if (DD->sym()->name() == N && DD->rhs())
              return DD;
      }
      ClassSymbol *Super = nullptr;
      for (const Type *P : Walk->parents())
        if (ClassSymbol *PC = P->classSymbol())
          if (!PC->isTrait()) {
            Super = PC;
            break;
          }
      Walk = Super;
    }
    return nullptr;
  }

  Value moduleInstance(ClassSymbol *ModuleCls) {
    auto It = Modules.find(ModuleCls);
    if (It != Modules.end())
      return It->second;
    // Register the instance *before* running the constructor (the JVM
    // MODULE$ idiom) — the module's own initializer may refer back to it.
    Value V = objectShell(ModuleCls);
    Modules[ModuleCls] = V;
    if (DefDef *Init = findDeclaredCtor(ModuleCls))
      invokeMethod(V, Init, {});
    return V;
  }

  Value instantiate(ClassSymbol *Cls, const std::vector<Value> &Args) {
    Value V = objectShell(Cls);
    // Run the constructor.
    if (DefDef *Init = findDeclaredCtor(Cls))
      invokeMethod(V, Init, Args);
    return V;
  }

  Value objectShell(ClassSymbol *Cls) {
    Value V;
    V.Kind = Value::Obj;
    V.O = Objects.make();
    V.O->Cls = Cls;
    // Default-initialize declared fields (incl. inherited).
    std::function<void(ClassSymbol *)> InitFields = [&](ClassSymbol *C) {
      if (ClassDef *CD = classDef(C))
        for (const TreePtr &M : CD->kids())
          if (auto *VD = dyn_cast_or_null<ValDef>(M.get()))
            V.O->Fields[VD->sym()] = defaultValue(VD->sym()->info());
      for (const Type *P : C->parents())
        if (ClassSymbol *PC = P->classSymbol())
          InitFields(PC);
    };
    InitFields(Cls);
    return V;
  }

  DefDef *findDeclaredCtor(ClassSymbol *Cls) {
    if (ClassDef *CD = classDef(Cls))
      for (const TreePtr &M : CD->kids())
        if (auto *DD = dyn_cast_or_null<DefDef>(M.get()))
          if (DD->sym()->is(SymFlag::Constructor))
            return DD;
    return nullptr;
  }

  Value defaultValue(const Type *Ty) {
    if (!Ty)
      return Value::null();
    if (Ty->isPrim(PrimKind::Int))
      return Value::integer(0);
    if (Ty->isPrim(PrimKind::Boolean))
      return Value::boolean(false);
    if (Ty->isPrim(PrimKind::Double))
      return Value::dbl(0);
    if (Ty->isUnit())
      return Value::unit();
    return Value::null();
  }

  Value invoke(Value Receiver, Symbol *MethodSym,
               const std::vector<Value> &Args) {
    if (Receiver.Kind != Value::Obj || !Receiver.O)
      throw InterpError{"invoke on non-object receiver"};
    DefDef *Impl = findMethod(Receiver.O->Cls, MethodSym->name());
    if (!Impl)
      throw InterpError{"no implementation of " +
                        MethodSym->name().str() + " in " +
                        Receiver.O->Cls->name().str()};
    return invokeMethod(Receiver, Impl, Args);
  }

  Value invokeMethod(Value Receiver, DefDef *Impl,
                     const std::vector<Value> &Args) {
    Frame F;
    unsigned N = Impl->numParamsTotal();
    if (Args.size() != N)
      throw InterpError{"arity mismatch calling " +
                        Impl->sym()->name().str()};
    for (unsigned I = 0; I < N; ++I)
      F[cast<ValDef>(Impl->paramAt(I))->sym()] = Args[I];
    try {
      return eval(Impl->rhs(), F, Receiver);
    } catch (ReturnSignal &RS) {
      if (RS.Method == Impl->sym())
        return RS.V;
      throw;
    }
  }

  //===--- evaluation ------------------------------------------------------===//

  Value eval(Tree *T, Frame &F, Value &Self) {
    step();
    switch (T->kind()) {
    case TreeKind::Literal: {
      const Constant &C = cast<Literal>(T)->value();
      switch (C.kind()) {
      case Constant::Unit:
        return Value::unit();
      case Constant::Bool:
        return Value::boolean(C.boolValue());
      case Constant::Int:
        return Value::integer(C.intValue());
      case Constant::Double:
        return Value::dbl(C.doubleValue());
      case Constant::Str:
        return Value::str(C.stringValue().str());
      case Constant::Null:
        return Value::null();
      case Constant::Clazz: {
        Value V;
        V.Kind = Value::Clazz;
        V.Cl = C.clazzValue();
        return V;
      }
      }
      return Value::unit();
    }
    case TreeKind::Ident: {
      Symbol *Sym = cast<Ident>(T)->sym();
      if (Sym->is(SymFlag::Module))
        return moduleInstance(
            cast<ClassSymbol>(Sym->info()->classSymbol()));
      auto It = F.find(Sym);
      if (It != F.end())
        return It->second;
      // Field access through the implicit receiver (pre-Getters trees or
      // synthetic code may reference fields directly).
      if (Self.Kind == Value::Obj) {
        auto FIt = Self.O->Fields.find(Sym);
        if (FIt != Self.O->Fields.end())
          return FIt->second;
      }
      throw InterpError{"unbound identifier " + Sym->name().str()};
    }
    case TreeKind::This:
    case TreeKind::Super:
      return Self;
    case TreeKind::Select: {
      auto *Sel = cast<Select>(T);
      Value Q = eval(Sel->qual(), F, Self);
      return getField(Q, Sel->sym());
    }
    case TreeKind::Typed: {
      Value V = eval(cast<Typed>(T)->expr(), F, Self);
      if (!conforms(V, T->type()))
        throw ThrownValue{makeError("ClassCastException: value is not a " +
                                    T->type()->show())};
      return V;
    }
    case TreeKind::Apply:
      return evalApply(cast<Apply>(T), F, Self);
    case TreeKind::New: {
      auto *N = cast<New>(T);
      std::vector<Value> Args;
      for (unsigned I = 0; I < N->numArgs(); ++I)
        Args.push_back(eval(N->arg(I), F, Self));
      ClassSymbol *Cls = N->classTy()->classSymbol();
      if (!Cls)
        throw InterpError{"new of non-class type"};
      if (Cls->is(SymFlag::Builtin))
        return builtinNew(Cls, Args);
      return instantiate(Cls, Args);
    }
    case TreeKind::Assign: {
      auto *A = cast<Assign>(T);
      if (auto *Sel = dyn_cast<Select>(A->lhs())) {
        Value Q = eval(Sel->qual(), F, Self);
        Value V = eval(A->rhs(), F, Self);
        if (Q.Kind != Value::Obj)
          throw InterpError{"field store on non-object"};
        Q.O->Fields[Sel->sym()] = V;
        return Value::unit();
      }
      auto *Id = cast<Ident>(A->lhs());
      Value V = eval(A->rhs(), F, Self);
      auto It = F.find(Id->sym());
      if (It != F.end()) {
        It->second = V;
        return Value::unit();
      }
      if (Self.Kind == Value::Obj)
        Self.O->Fields[Id->sym()] = V;
      else
        F[Id->sym()] = V;
      return Value::unit();
    }
    case TreeKind::Block: {
      auto *B = cast<Block>(T);
      for (unsigned I = 0; I < B->numStats(); ++I) {
        Tree *Stat = B->stat(I);
        if (auto *VD = dyn_cast<ValDef>(Stat)) {
          F[VD->sym()] =
              VD->rhs() ? eval(VD->rhs(), F, Self)
                        : defaultValue(VD->sym()->info());
          continue;
        }
        if (isa<DefDef>(Stat) || isa<ClassDef>(Stat))
          continue; // unlowered local definitions are inert here
        eval(Stat, F, Self);
      }
      return eval(B->expr(), F, Self);
    }
    case TreeKind::If: {
      auto *I = cast<If>(T);
      Value C = eval(I->cond(), F, Self);
      return eval(C.truthy() ? I->thenp() : I->elsep(), F, Self);
    }
    case TreeKind::WhileDo: {
      auto *W = cast<WhileDo>(T);
      while (eval(W->cond(), F, Self).truthy())
        eval(W->body(), F, Self);
      return Value::unit();
    }
    case TreeKind::Labeled: {
      auto *L = cast<Labeled>(T);
      while (true) {
        try {
          return eval(L->body(), F, Self);
        } catch (ContinueSignal &CS) {
          if (CS.Label != L->label())
            throw;
          // loop: re-enter the labeled body
        }
      }
    }
    case TreeKind::Goto:
      throw ContinueSignal{cast<Goto>(T)->label()};
    case TreeKind::Return: {
      auto *R = cast<Return>(T);
      Value V = R->expr() ? eval(R->expr(), F, Self) : Value::unit();
      throw ReturnSignal{R->fromMethod(), V};
    }
    case TreeKind::Throw: {
      Value V = eval(cast<Throw>(T)->expr(), F, Self);
      throw ThrownValue{V};
    }
    case TreeKind::Try:
      return evalTry(cast<Try>(T), F, Self);
    case TreeKind::SeqLiteral: {
      auto *S = cast<SeqLiteral>(T);
      Value V;
      V.Kind = Value::Arr;
      V.A = Arrays.make();
      for (unsigned I = 0; I < S->numKids(); ++I)
        V.A->Elems.push_back(eval(S->kid(I), F, Self));
      return V;
    }
    case TreeKind::Closure: {
      // Unlowered closures should not reach execution; the differential
      // tests always run the full pipeline first.
      throw InterpError{"closure reached the interpreter"};
    }
    case TreeKind::Match:
      throw InterpError{"match reached the interpreter"};
    default:
      throw InterpError{std::string("cannot evaluate ") +
                        treeKindName(T->kind())};
    }
  }

  Value getField(Value Q, Symbol *Sym) {
    switch (Q.Kind) {
    case Value::Obj: {
      auto It = Q.O->Fields.find(Sym);
      if (It != Q.O->Fields.end())
        return It->second;
      // Fall back to by-name lookup (trait copies use fresh symbols).
      for (auto &[FieldSym, V] : Q.O->Fields)
        if (FieldSym->name() == Sym->name())
          return V;
      throw InterpError{"no field " + Sym->name().str() + " on " +
                        Q.O->Cls->name().str()};
    }
    default:
      throw InterpError{"field access on non-object value"};
    }
  }

  Value makeError(const std::string &Msg) {
    Value V;
    V.Kind = Value::Obj;
    V.O = Objects.make();
    V.O->Cls = Comp.syms().throwableClass();
    Symbol *MsgField = Comp.syms().throwableClass()->findDeclaredMember(
        Comp.syms().std().Message);
    V.O->Fields[MsgField] = Value::str(Msg);
    return V;
  }

  Value builtinNew(ClassSymbol *Cls, const std::vector<Value> &Args) {
    Value V;
    V.Kind = Value::Obj;
    V.O = Objects.make();
    V.O->Cls = Cls;
    SymbolTable &Syms = Comp.syms();
    if (Cls == Syms.throwableClass() && !Args.empty()) {
      Symbol *MsgField =
          Cls->findDeclaredMember(Syms.std().Message);
      V.O->Fields[MsgField] = Args[0];
    } else if (Cls == Syms.nonLocalReturnClass() && !Args.empty()) {
      Symbol *ValueField = Cls->findDeclaredMember(Syms.std().Value);
      V.O->Fields[ValueField] = Args[0];
    } else if (Cls->findDeclaredMember(Syms.std().Elem) && !Args.empty()) {
      V.O->Fields[Cls->findDeclaredMember(Syms.std().Elem)] = Args[0];
    }
    return V;
  }

  bool conforms(const Value &V, const Type *Ty) {
    if (!Ty || Ty->isAny())
      return true;
    switch (Ty->kind()) {
    case TypeKind::Primitive:
      switch (cast<PrimitiveType>(Ty)->prim()) {
      case PrimKind::Int:
        return V.Kind == Value::Int;
      case PrimKind::Boolean:
        return V.Kind == Value::Bool;
      case PrimKind::Double:
        return V.Kind == Value::Double || V.Kind == Value::Int;
      case PrimKind::Unit:
        return V.Kind == Value::Unit;
      case PrimKind::Null:
        return V.Kind == Value::Null;
      default:
        return true;
      }
    case TypeKind::Class: {
      ClassSymbol *Cls = cast<ClassType>(Ty)->cls();
      if (V.Kind == Value::Null)
        return true; // null conforms to reference types
      if (Cls == Comp.syms().objectClass())
        return true;
      if (V.Kind == Value::Str)
        return Cls == Comp.syms().stringClass();
      if (V.Kind == Value::Obj)
        return V.O->Cls->derivesFrom(Cls);
      if (V.Kind == Value::Arr || V.Kind == Value::Clazz)
        return Cls == Comp.syms().objectClass();
      return false;
    }
    case TypeKind::Array:
      return V.Kind == Value::Arr || V.Kind == Value::Null;
    default:
      return true;
    }
  }

  bool valueEquals(const Value &A, const Value &B) {
    if (A.Kind == Value::Null || B.Kind == Value::Null)
      return A.Kind == B.Kind;
    if ((A.Kind == Value::Int || A.Kind == Value::Double) &&
        (B.Kind == Value::Int || B.Kind == Value::Double)) {
      if (A.Kind == Value::Int && B.Kind == Value::Int)
        return A.I == B.I;
      return A.asDouble() == B.asDouble();
    }
    if (A.Kind != B.Kind)
      return false;
    switch (A.Kind) {
    case Value::Unit:
      return true;
    case Value::Bool:
      return A.I == B.I;
    case Value::Str:
      return *A.S == *B.S;
    case Value::Clazz: {
      // Class literals compare erased, like the JVM: Box[Int] and
      // Box[String] share a runtime class.
      const auto *CA = dyn_cast<ClassType>(A.Cl);
      const auto *CB = dyn_cast<ClassType>(B.Cl);
      if (CA && CB)
        return CA->cls() == CB->cls();
      return A.Cl == B.Cl;
    }
    case Value::Arr:
      return A.A == B.A;
    case Value::Obj:
      // Case classes compare structurally, like Scala's generated equals.
      if (A.O == B.O)
        return true;
      if (A.O->Cls == B.O->Cls && A.O->Cls->is(SymFlag::Case)) {
        for (Symbol *Field : A.O->Cls->caseFields()) {
          Value FA = caseFieldValue(A, Field);
          Value FB = caseFieldValue(B, Field);
          if (!valueEquals(FA, FB))
            return false;
        }
        return true;
      }
      return false;
    default:
      return false;
    }
  }

  /// The runtime class of \p V as a class-literal value (getClass).
  Value classValueOf(const Value &V) {
    Value R;
    R.Kind = Value::Clazz;
    if (V.Kind == Value::Obj)
      R.Cl = Comp.types().classType(V.O->Cls);
    else if (V.Kind == Value::Str)
      R.Cl = Comp.syms().stringType();
    else
      R.Cl = Comp.syms().objectType();
    return R;
  }

  Value caseFieldValue(const Value &V, Symbol *Field) {
    auto It = V.O->Fields.find(Field);
    if (It != V.O->Fields.end())
      return It->second;
    // Trait copies use fresh symbols, so the exact symbol can miss.
    // Resolve the stand-in once per (class, field) — same-class objects
    // share a field-key set — instead of rescanning the map on every
    // show/equals of a case-class-heavy structure.
    auto Key = std::make_pair(V.O->Cls, Field);
    auto Memo = CaseFieldMemo.find(Key);
    Symbol *Resolved;
    if (Memo != CaseFieldMemo.end()) {
      Resolved = Memo->second;
    } else {
      Resolved = nullptr;
      for (auto &[Sym, FV] : V.O->Fields)
        if (Sym->name() == Field->name()) {
          Resolved = Sym;
          break;
        }
      CaseFieldMemo.emplace(Key, Resolved);
    }
    if (Resolved) {
      auto FIt = V.O->Fields.find(Resolved);
      if (FIt != V.O->Fields.end())
        return FIt->second;
    }
    return Value::null();
  }

  std::string show(const Value &V) {
    switch (V.Kind) {
    case Value::Unit:
      return "()";
    case Value::Bool:
      return V.I ? "true" : "false";
    case Value::Int:
      return std::to_string(V.I);
    case Value::Double: {
      std::ostringstream OS;
      OS << V.D;
      return OS.str();
    }
    case Value::Str:
      return *V.S;
    case Value::Null:
      return "null";
    case Value::Clazz:
      return "class " + V.Cl->show();
    case Value::Arr: {
      std::string S = "Array(";
      for (size_t I = 0; I < V.A->Elems.size(); ++I) {
        if (I)
          S += ", ";
        S += show(V.A->Elems[I]);
      }
      return S + ")";
    }
    case Value::Obj: {
      ClassSymbol *Cls = V.O->Cls;
      if (Cls->is(SymFlag::Case)) {
        std::string S(Cls->name().text());
        S += "(";
        bool First = true;
        for (Symbol *Field : Cls->caseFields()) {
          if (!First)
            S += ", ";
          First = false;
          S += show(caseFieldValue(V, Field));
        }
        return S + ")";
      }
      // Throwable-ish rendering.
      if (Cls->derivesFrom(Comp.syms().throwableClass())) {
        Value Msg = caseFieldValue(
            V, Comp.syms().throwableClass()->findDeclaredMember(
                   Comp.syms().std().Message));
        std::string S(Cls->name().text());
        if (Msg.Kind == Value::Str)
          S += "(" + *Msg.S + ")";
        return S;
      }
      return std::string(Cls->name().text()) + "@instance";
    }
    }
    return "?";
  }

  Value evalTry(Try *T, Frame &F, Value &Self) {
    auto RunFinalizer = [&]() {
      if (T->finalizer())
        eval(T->finalizer(), F, Self);
    };
    try {
      Value V = eval(T->body(), F, Self);
      RunFinalizer();
      return V;
    } catch (ThrownValue &TV) {
      for (unsigned I = 0; I < T->numCatches(); ++I) {
        auto *C = cast<CaseDef>(T->catchAt(I));
        Symbol *Binder = nullptr;
        const Type *CatchTy = Comp.syms().throwableType();
        Tree *Pat = C->pat();
        if (auto *B = dyn_cast<Bind>(Pat)) {
          Binder = B->sym();
          Pat = B->pat();
        }
        if (auto *Ty = dyn_cast_or_null<Typed>(Pat))
          CatchTy = Ty->type();
        if (!conforms(TV.V, CatchTy))
          continue;
        if (Binder)
          F[Binder] = TV.V;
        Value V = eval(C->body(), F, Self);
        RunFinalizer();
        return V;
      }
      RunFinalizer();
      throw;
    } catch (...) {
      RunFinalizer();
      throw;
    }
  }

  Value evalApply(Apply *T, Frame &F, Value &Self) {
    SymbolTable &Syms = Comp.syms();
    Tree *Fun = T->fun();

    // Type-applied intrinsics.
    if (auto *TApp = dyn_cast<TypeApply>(Fun)) {
      auto *Sel = cast<Select>(TApp->fun());
      Value Q = eval(Sel->qual(), F, Self);
      if (Sel->sym() == Syms.isInstanceOfMethod())
        return Value::boolean(Q.Kind != Value::Null &&
                              conforms(Q, TApp->typeArgs()[0]));
      if (Sel->sym() == Syms.asInstanceOfMethod()) {
        if (!conforms(Q, TApp->typeArgs()[0]))
          throw ThrownValue{
              makeError("ClassCastException: value is not a " +
                        TApp->typeArgs()[0]->show())};
        return Q;
      }
      if (Sel->sym() == Syms.newArrayMethod()) {
        Value Len = eval(T->arg(0), F, Self);
        Value V;
        V.Kind = Value::Arr;
        V.A = Arrays.make();
        V.A->Elems.assign(static_cast<size_t>(Len.I),
                          defaultValue(TApp->typeArgs()[0]));
        return V;
      }
      throw InterpError{"unknown type-applied intrinsic"};
    }

    auto *Sel = dyn_cast<Select>(Fun);
    if (!Sel) {
      // Direct call of a local method (pre-LambdaLift trees).
      if (auto *Id = dyn_cast<Ident>(Fun)) {
        if (auto *DD = dyn_cast_or_null<DefDef>(Id->sym()->defTree())) {
          std::vector<Value> Args;
          for (unsigned I = 0; I < T->numArgs(); ++I)
            Args.push_back(eval(T->arg(I), F, Self));
          // Local methods share the enclosing frame for captured vars.
          Frame Inner = F;
          unsigned N = DD->numParamsTotal();
          for (unsigned I = 0; I < N && I < Args.size(); ++I)
            Inner[cast<ValDef>(DD->paramAt(I))->sym()] = Args[I];
          try {
            return eval(DD->rhs(), Inner, Self);
          } catch (ReturnSignal &RS) {
            if (RS.Method == DD->sym())
              return RS.V;
            throw;
          }
        }
      }
      throw InterpError{"cannot call this function shape"};
    }

    Symbol *Sym = Sel->sym();

    // Primitive operators, dispatched on the dense kind fixed at builtin
    // registration (no name-text comparison on the hot path).
    if (Syms.isPrimOp(Sym)) {
      Value L = eval(Sel->qual(), F, Self);
      Value R = T->numArgs() ? eval(T->arg(0), F, Self) : Value::unit();
      return primOp(Syms.primOpKindOf(Sym->name()), L, R, T->numArgs());
    }
    // Array intrinsics.
    if (Sym == Syms.arrayApply() || Sym == Syms.arrayUpdate() ||
        Sym == Syms.arrayLength()) {
      Value Q = eval(Sel->qual(), F, Self);
      if (Q.Kind != Value::Arr)
        throw InterpError{"array op on non-array"};
      if (Sym == Syms.arrayLength())
        return Value::integer(static_cast<int64_t>(Q.A->Elems.size()));
      Value Idx = eval(T->arg(0), F, Self);
      size_t I = static_cast<size_t>(Idx.I);
      if (I >= Q.A->Elems.size())
        throw ThrownValue{makeError("ArrayIndexOutOfBounds")};
      if (Sym == Syms.arrayApply())
        return Q.A->Elems[I];
      Q.A->Elems[I] = eval(T->arg(1), F, Self);
      return Value::unit();
    }
    // String concatenation / length.
    if (Sym->owner() == Syms.stringClass()) {
      Value Q = eval(Sel->qual(), F, Self);
      if (Sym->name().text() == "+") {
        Value R = eval(T->arg(0), F, Self);
        return Value::str(show(Q) + show(R));
      }
      if (Sym->name() == Syms.std().Length)
        return Value::integer(static_cast<int64_t>(Q.S->size()));
    }
    // Runtime.equals and Predef printing.
    if (Sym == Syms.runtimeEqualsMethod()) {
      eval(Sel->qual(), F, Self); // module ref, no effect
      Value A = eval(T->arg(0), F, Self);
      Value B = eval(T->arg(1), F, Self);
      return Value::boolean(valueEquals(A, B));
    }
    if (Sym == Syms.printlnMethod() || Sym == Syms.printMethod()) {
      eval(Sel->qual(), F, Self);
      Value A = eval(T->arg(0), F, Self);
      Output += show(A);
      if (Sym == Syms.printlnMethod())
        Output += '\n';
      return Value::unit();
    }
    // Object methods on arbitrary values.
    if (Sym->owner() == Syms.objectClass() && Sym->is(SymFlag::Builtin)) {
      Value Q = eval(Sel->qual(), F, Self);
      std::string_view N = Sym->name().text();
      if (N == "==" || N == "equals") {
        Value R = eval(T->arg(0), F, Self);
        return Value::boolean(valueEquals(Q, R));
      }
      if (N == "!=") {
        Value R = eval(T->arg(0), F, Self);
        return Value::boolean(!valueEquals(Q, R));
      }
      if (N == "toString")
        return Value::str(show(Q));
      if (N == "getClass")
        return classValueOf(Q);
    }

    // Super calls (incl. parent constructors): static dispatch.
    if (auto *Sup = dyn_cast<Super>(Sel->qual())) {
      std::vector<Value> Args;
      for (unsigned I = 0; I < T->numArgs(); ++I)
        Args.push_back(eval(T->arg(I), F, Self));
      ClassSymbol *Target = Sup->target();
      if (Sym->is(SymFlag::Constructor)) {
        if (Target->is(SymFlag::Builtin))
          return Value::unit(); // Object/Throwable ctors are no-ops here
        if (DefDef *Ctor = findDeclaredCtor(Target))
          return invokeMethod(Self, Ctor, Args);
        return Value::unit();
      }
      if (DefDef *Impl = findMethod(Target, Sym->name()))
        return invokeMethod(Self, Impl, Args);
      throw InterpError{"missing super method " + Sym->name().str()};
    }

    // Virtual dispatch.
    Value Q = eval(Sel->qual(), F, Self);
    std::vector<Value> Args;
    for (unsigned I = 0; I < T->numArgs(); ++I)
      Args.push_back(eval(T->arg(I), F, Self));
    if (Q.Kind == Value::Null)
      throw ThrownValue{makeError("NullPointerException")};
    if (Q.Kind != Value::Obj) {
      // Object methods on primitives (toString etc.).
      std::string_view N = Sym->name().text();
      if (N == "toString")
        return Value::str(show(Q));
      if (N == "==" || N == "equals")
        return Value::boolean(valueEquals(Q, Args[0]));
      if (N == "!=")
        return Value::boolean(!valueEquals(Q, Args[0]));
      throw InterpError{"method call on non-object value: " +
                        Sym->name().str()};
    }
    return invoke(Q, Sym, Args);
  }

  /// Int results wrap at 32 bits like JVM ints. Intermediate math is
  /// 64-bit, so the truncation implements two's-complement modular
  /// arithmetic (including INT_MIN / -1).
  static int64_t wrap32(int64_t V) { return static_cast<int32_t>(V); }

  Value primOp(PrimOpKind Op, Value L, Value R, unsigned NumArgs) {
    bool Dbl = L.Kind == Value::Double ||
               (NumArgs && R.Kind == Value::Double);
    switch (Op) {
    case PrimOpKind::Neg:
      return Dbl ? Value::dbl(-L.asDouble()) : Value::integer(wrap32(-L.I));
    case PrimOpKind::Not:
      return Value::boolean(!L.truthy());
    case PrimOpKind::Add:
      return Dbl ? Value::dbl(L.asDouble() + R.asDouble())
                 : Value::integer(wrap32(L.I + R.I));
    case PrimOpKind::Sub:
      return Dbl ? Value::dbl(L.asDouble() - R.asDouble())
                 : Value::integer(wrap32(L.I - R.I));
    case PrimOpKind::Mul:
      return Dbl ? Value::dbl(L.asDouble() * R.asDouble())
                 : Value::integer(wrap32(L.I * R.I));
    case PrimOpKind::Div:
      if (!Dbl && R.I == 0)
        throw ThrownValue{makeError("ArithmeticException: / by zero")};
      return Dbl ? Value::dbl(L.asDouble() / R.asDouble())
                 : Value::integer(wrap32(L.I / R.I));
    case PrimOpKind::Rem:
      if (!Dbl && R.I == 0)
        throw ThrownValue{makeError("ArithmeticException: % by zero")};
      return Dbl ? Value::dbl(std::fmod(L.asDouble(), R.asDouble()))
                 : Value::integer(wrap32(L.I % R.I));
    case PrimOpKind::CmpLt:
      return Value::boolean(L.asDouble() < R.asDouble());
    case PrimOpKind::CmpLe:
      return Value::boolean(L.asDouble() <= R.asDouble());
    case PrimOpKind::CmpGt:
      return Value::boolean(L.asDouble() > R.asDouble());
    case PrimOpKind::CmpGe:
      return Value::boolean(L.asDouble() >= R.asDouble());
    case PrimOpKind::CmpEq:
      return Value::boolean(valueEquals(L, R));
    case PrimOpKind::CmpNe:
      return Value::boolean(!valueEquals(L, R));
    case PrimOpKind::And:
      return Value::boolean(L.truthy() && R.truthy());
    case PrimOpKind::Or:
      return Value::boolean(L.truthy() || R.truthy());
    case PrimOpKind::None:
      break;
    }
    throw InterpError{"unknown primitive operator"};
  }

  CompilerContext &Comp;
  uint64_t StepLimit;
  uint64_t Steps = 0;
  std::map<ClassSymbol *, ClassDef *> Classes;
  std::map<ClassSymbol *, Value> Modules;
  Allocations<ObjVal> Objects;
  Allocations<ArrVal> Arrays;
  /// (class, case field) -> the stand-in field symbol instances of that
  /// class actually carry (or null when none matches by name).
  std::map<std::pair<ClassSymbol *, Symbol *>, Symbol *> CaseFieldMemo;
  std::string Output;
};

Interpreter::Interpreter(CompilerContext &Comp,
                         const std::vector<CompilationUnit> &Units,
                         uint64_t StepLimit)
    : P(std::make_unique<Impl>(Comp, Units, StepLimit)) {}

Interpreter::~Interpreter() = default;

ExecResult Interpreter::runMain(Symbol *EntryPoint,
                                const std::vector<std::string> &Args) {
  return P->runMain(EntryPoint, Args);
}
