//===----------------------------------------------------------------------===//
///
/// \file
/// Fusion block C: Mixin, LazyVals, Memoize, NonLocalReturns,
/// CapturedVars.
///
//===----------------------------------------------------------------------===//

#include "transforms/Phases.h"

#include "ast/TreeUtils.h"
#include "transforms/TransformUtils.h"
#include "transforms/TreeClone.h"

using namespace mpc;

//===----------------------------------------------------------------------===//
// Mixin
//===----------------------------------------------------------------------===//

MixinPhase::MixinPhase()
    : MiniPhase("Mixin", "copies concrete trait members into classes") {
  declareTransforms({TreeKind::ClassDef});
  // Rule 3 (paper §6.1): trait bodies must have been fully transformed by
  // the accessor-introducing group before any class copies them.
  addRunsAfterGroupsOf("Getters");
}

/// Collects trait ancestors, most-derived first.
static void collectTraits(ClassSymbol *Cls,
                          std::vector<ClassSymbol *> &Out) {
  for (const Type *P : Cls->parents()) {
    ClassSymbol *PCls = P->classSymbol();
    if (!PCls)
      continue;
    if (PCls->isTrait() &&
        std::find(Out.begin(), Out.end(), PCls) == Out.end())
      Out.push_back(PCls);
    collectTraits(PCls, Out);
  }
}

TreePtr MixinPhase::transformClassDef(ClassDef *T, PhaseRunContext &Ctx) {
  ClassSymbol *Cls = T->sym();
  if (Cls->isTrait())
    return TreePtr(T);
  std::vector<ClassSymbol *> Traits;
  collectTraits(Cls, Traits);
  if (Traits.empty())
    return TreePtr(T);

  TreeList Body = T->kids();
  bool Added = false;
  for (ClassSymbol *Trait : Traits) {
    for (Symbol *M : Trait->members()) {
      if (!M->isMethod() || M->is(SymFlag::Abstract) ||
          M->is(SymFlag::Constructor) || M->is(SymFlag::Builtin))
        continue;
      // Skip if the class (or a class ancestor, or an earlier trait copy)
      // already provides this member.
      if (Symbol *Existing = Cls->findDeclaredMember(M->name())) {
        (void)Existing;
        continue;
      }
      auto *Def = dyn_cast_or_null<DefDef>(M->defTree());
      if (!Def || !Def->rhs())
        continue;
      // Clone the trait method into the class under a fresh symbol.
      Symbol *Copy = Ctx.syms().makeTerm(
          M->name(), Cls, (M->flags() | SymFlag::Synthetic), M->info());
      SymbolMap Subst;
      Subst[M] = Copy;
      TreePtr Cloned = cloneTree(Ctx.Comp, Def, Subst, Copy);
      Cls->enterMember(Copy);
      Body.push_back(std::move(Cloned));
      Added = true;
    }
  }
  if (!Added)
    return TreePtr(T);
  return Ctx.trees().makeClassDef(T->loc(), Cls, std::move(Body));
}

//===----------------------------------------------------------------------===//
// LazyVals
//===----------------------------------------------------------------------===//

LazyValsPhase::LazyValsPhase()
    : MiniPhase("LazyVals", "expands lazy vals into flag + storage") {
  declareTransforms({TreeKind::ClassDef});
  addRunsAfter("Mixin");
}

TreePtr LazyValsPhase::transformClassDef(ClassDef *T, PhaseRunContext &Ctx) {
  ClassSymbol *Cls = T->sym();
  if (Cls->isTrait())
    return TreePtr(T); // expanded in the implementing classes
  TreeContext &Trees = Ctx.trees();
  TypeContext &Types = Ctx.types();

  TreeList Body;
  bool Changed = false;
  for (const TreePtr &Member : T->kids()) {
    auto *Def = dyn_cast_or_null<DefDef>(Member.get());
    Symbol *Sym = Def ? Def->sym() : nullptr;
    if (!Def || !Sym || !Sym->is(SymFlag::Lazy) ||
        !Sym->is(SymFlag::Accessor) || !Def->rhs()) {
      Body.push_back(Member);
      continue;
    }
    Changed = true;
    SourceLoc Loc = Def->loc();
    const Type *ValueTy = cast<MethodType>(Sym->info())->result();

    Symbol *Storage = Ctx.syms().makeTerm(
        Ctx.syms().freshName(Sym->name().str() + "$lzy"), Cls,
        SymFlag::Field | SymFlag::Private | SymFlag::Synthetic |
            SymFlag::Mutable,
        ValueTy);
    Symbol *Flag = Ctx.syms().makeTerm(
        Ctx.syms().freshName(Sym->name().str() + "$flag"), Cls,
        SymFlag::Field | SymFlag::Private | SymFlag::Synthetic |
            SymFlag::Mutable,
        Types.booleanType());
    Cls->enterMember(Storage);
    Cls->enterMember(Flag);

    auto SelfField = [&](Symbol *F) {
      return Trees.makeSelect(Loc, makeSelfRef(Ctx, Loc, Cls), F,
                              F->info());
    };
    // if (!flag) { storage = rhs; flag = true }; storage
    Symbol *Not = Ctx.syms().primOp(PrimKind::Boolean,
                                    Ctx.Comp.names().intern("unary_!"));
    TreePtr NotFlag = makeMemberCall(Ctx, Loc, SelfField(Flag), Not,
                                     Not->info(), {});
    TreeList InitStats;
    InitStats.push_back(Trees.makeAssign(Loc, SelfField(Storage),
                                         TreePtr(Def->rhs()),
                                         Types.unitType()));
    InitStats.push_back(Trees.makeAssign(
        Loc, SelfField(Flag),
        Trees.makeLiteral(Loc, Constant::makeBool(true),
                          Types.booleanType()),
        Types.unitType()));
    TreePtr InitBlock = Trees.makeBlock(Loc, std::move(InitStats),
                                        makeUnitLit(Ctx, Loc));
    TreePtr Guard =
        Trees.makeIf(Loc, std::move(NotFlag), std::move(InitBlock),
                     makeUnitLit(Ctx, Loc), Types.unitType());
    TreeList GetterStats;
    GetterStats.push_back(std::move(Guard));
    TreePtr NewRhs = Trees.makeBlock(Loc, std::move(GetterStats),
                                     SelfField(Storage));

    // The accessor becomes a plain method (Memoize must not touch it).
    Sym->clearFlag(SymFlag::Lazy | SymFlag::Accessor);
    Body.push_back(Trees.makeValDef(Loc, Storage, nullptr));
    Body.push_back(Trees.makeValDef(Loc, Flag, nullptr));
    Body.push_back(Trees.makeDefDef(Loc, Sym, Def->paramListSizes(), {},
                                    std::move(NewRhs)));
  }
  if (!Changed)
    return TreePtr(T);
  return Trees.makeClassDef(T->loc(), Cls, std::move(Body));
}

bool LazyValsPhase::checkPostCondition(const Tree *T,
                                       CompilerContext &Comp) const {
  (void)Comp;
  // No lazy accessors survive in classes (traits keep them as templates
  // for Mixin, which runs before us).
  if (const auto *DD = dyn_cast<DefDef>(T)) {
    Symbol *S = DD->sym();
    if (S->is(SymFlag::Lazy) && S->is(SymFlag::Accessor) &&
        S->owner()->isClass() &&
        !cast<ClassSymbol>(S->owner())->isTrait())
      return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Memoize
//===----------------------------------------------------------------------===//

MemoizePhase::MemoizePhase()
    : MiniPhase("Memoize", "adds backing fields to getters") {
  declareTransforms({TreeKind::ClassDef});
  addRunsAfter("LazyVals");
}

TreePtr MemoizePhase::transformClassDef(ClassDef *T, PhaseRunContext &Ctx) {
  ClassSymbol *Cls = T->sym();
  if (Cls->isTrait())
    return TreePtr(T);
  TreeContext &Trees = Ctx.trees();

  TreeList Body;
  bool Changed = false;
  for (const TreePtr &Member : T->kids()) {
    auto *Def = dyn_cast_or_null<DefDef>(Member.get());
    Symbol *Sym = Def ? Def->sym() : nullptr;
    if (!Def || !Sym || !Sym->is(SymFlag::Accessor) ||
        Sym->is(SymFlag::Lazy) || !Def->rhs()) {
      Body.push_back(Member);
      continue;
    }
    Changed = true;
    SourceLoc Loc = Def->loc();
    const Type *ValueTy = cast<MethodType>(Sym->info())->result();
    Symbol *Field = Ctx.syms().makeTerm(
        Ctx.syms().freshName(Sym->name().str()), Cls,
        SymFlag::Field | SymFlag::Private | SymFlag::Synthetic, ValueTy);
    Cls->enterMember(Field);
    // Field keeps the initializer (Constructors moves it to <init>);
    // the getter just reads the field.
    Body.push_back(Trees.makeValDef(Loc, Field, TreePtr(Def->rhs())));
    TreePtr Read = Trees.makeSelect(Loc, makeSelfRef(Ctx, Loc, Cls), Field,
                                    ValueTy);
    Body.push_back(Trees.makeDefDef(Loc, Sym, Def->paramListSizes(), {},
                                    std::move(Read)));
  }
  if (!Changed)
    return TreePtr(T);
  return Trees.makeClassDef(T->loc(), Cls, std::move(Body));
}

//===----------------------------------------------------------------------===//
// NonLocalReturns
//===----------------------------------------------------------------------===//

NonLocalReturnsPhase::NonLocalReturnsPhase()
    : MiniPhase("NonLocalReturns",
                "expands returns from within closures") {
  // The Return hook must fire when the traversal reaches the node itself:
  // a later fused phase (FunctionValues) rewrites Closure nodes, so a
  // DefDef-level scan would find the closure bodies already moved away —
  // the §6.1 rule-2 trap this phase originally fell into.
  declareTransforms({TreeKind::Return, TreeKind::DefDef});
  declarePrepares({TreeKind::Closure, TreeKind::DefDef});
}

void NonLocalReturnsPhase::prepareForUnit(PhaseRunContext &Ctx) {
  (void)Ctx;
  ClosureDepth = 0;
  MethodFrames.clear();
  NeedsCatch.clear();
}

void NonLocalReturnsPhase::prepareForClosure(Closure *T,
                                             PhaseRunContext &Ctx) {
  (void)T;
  (void)Ctx;
  ++ClosureDepth;
}

void NonLocalReturnsPhase::leaveClosure(Closure *T, PhaseRunContext &Ctx) {
  (void)T;
  (void)Ctx;
  --ClosureDepth;
}

void NonLocalReturnsPhase::prepareForDefDef(DefDef *T,
                                            PhaseRunContext &Ctx) {
  (void)Ctx;
  MethodFrames.push_back({T->sym(), ClosureDepth});
}

void NonLocalReturnsPhase::leaveDefDef(DefDef *T, PhaseRunContext &Ctx) {
  (void)T;
  (void)Ctx;
  MethodFrames.pop_back();
}

bool NonLocalReturnsPhase::crossesClosure(const Symbol *Target) const {
  // A return is non-local iff a closure was entered after its target
  // method: a return to a def defined INSIDE the closure is still local.
  for (auto It = MethodFrames.rbegin(); It != MethodFrames.rend(); ++It)
    if (It->first == Target)
      return It->second < ClosureDepth;
  return ClosureDepth > 0; // target not on the stack: be conservative
}

TreePtr NonLocalReturnsPhase::transformReturn(Return *T,
                                              PhaseRunContext &Ctx) {
  if (!crossesClosure(T->fromMethod()))
    return TreePtr(T);
  NeedsCatch.insert(T->fromMethod());
  TreePtr Value = T->expr() ? TreePtr(T->expr())
                            : makeUnitLit(Ctx, T->loc());
  const Type *NlrTy =
      Ctx.types().classType(Ctx.syms().nonLocalReturnClass());
  TreeList Args;
  Args.push_back(std::move(Value));
  TreePtr Exc = Ctx.trees().makeNew(T->loc(), NlrTy, std::move(Args));
  return Ctx.trees().makeThrow(T->loc(), std::move(Exc),
                               Ctx.types().nothingType());
}

bool NonLocalReturnsPhase::checkPostCondition(const Tree *T,
                                              CompilerContext &Comp) const {
  (void)Comp;
  const auto *Cl = dyn_cast<Closure>(T);
  if (!Cl)
    return true;
  // Every Return inside a closure body must target a def defined within
  // that same body.
  std::set<const Symbol *> Inner;
  forEachSubtree(const_cast<Tree *>(T), [&](Tree *Sub) {
    if (auto *DD = dyn_cast<DefDef>(Sub))
      Inner.insert(DD->sym());
  });
  bool Ok = true;
  forEachSubtree(const_cast<Tree *>(T), [&](Tree *Sub) {
    if (auto *R = dyn_cast<Return>(Sub))
      if (!Inner.count(R->fromMethod()))
        Ok = false;
  });
  return Ok;
}

TreePtr NonLocalReturnsPhase::transformDefDef(DefDef *T,
                                              PhaseRunContext &Ctx) {
  if (!T->rhs() || !NeedsCatch.count(T->sym()))
    return TreePtr(T);
  NeedsCatch.erase(T->sym());
  TreePtr NewBody = TreePtr(T->rhs());

  // Wrap the body: try { body } catch { case e: NonLocalReturnControl =>
  // e.value.asInstanceOf[R] } — built in the lowered (post-patmat) form.
  TreeContext &Trees = Ctx.trees();
  TypeContext &Types = Ctx.types();
  SourceLoc Loc = T->loc();
  ClassSymbol *NlrCls = Ctx.syms().nonLocalReturnClass();
  const Type *NlrTy = Types.classType(NlrCls);
  const Type *ResultTy = NewBody->type();

  Symbol *Exc = Ctx.syms().makeTerm(
      Ctx.syms().freshName("nlr"), T->sym(),
      SymFlag::Local | SymFlag::Synthetic, NlrTy);
  Symbol *ValueField = NlrCls->findDeclaredMember(Ctx.syms().std().Value);
  TreePtr Read = Trees.makeSelect(
      Loc, Trees.makeIdent(Loc, Exc, NlrTy), ValueField,
      ValueField->info());
  TreePtr CastRead = Trees.makeTyped(Loc, std::move(Read), ResultTy);
  // The catch pattern: e @ (_: NonLocalReturnControl). Non-matching
  // throwables rethrow implicitly (interpreter semantics of Try cases).
  Symbol *Wild = Ctx.syms().makeTerm(Ctx.syms().std().Wildcard, T->sym(),
                                     SymFlag::Synthetic | SymFlag::Local,
                                     NlrTy);
  TreePtr Pat = Trees.makeBind(
      Loc, Exc,
      Trees.makeTyped(Loc, Trees.makeIdent(Loc, Wild, NlrTy), NlrTy));
  TreePtr Handler =
      Trees.makeCaseDef(Loc, std::move(Pat), nullptr, std::move(CastRead));
  TreeList Catches;
  Catches.push_back(std::move(Handler));
  TreePtr Wrapped = Trees.makeTry(Loc, std::move(NewBody),
                                  std::move(Catches), nullptr, ResultTy);

  TreeList Kids = T->kids();
  Kids.back() = std::move(Wrapped);
  return Trees.withNewChildren(T, std::move(Kids));
}

//===----------------------------------------------------------------------===//
// CapturedVars
//===----------------------------------------------------------------------===//

CapturedVarsPhase::CapturedVarsPhase()
    : MiniPhase("CapturedVars",
                "boxes vars captured by closures into Ref cells") {
  declareTransforms({TreeKind::Ident, TreeKind::ValDef});
}

namespace {
/// CapturedVars' unit scan: which mutable locals are referenced from
/// inside a closure that does not define them? Walks with a
/// closure-nesting depth.
struct CaptureScan {
  FlatPtrMap<Symbol *, bool> &Boxed;
  /// A subtree is scanned only when its kind summary meets Outside (at
  /// depth 0) or Inside (within a closure). Definitions and closures
  /// matter everywhere; references only inside a closure, since a local
  /// defined at depth 0 and read at depth 0 is never boxed.
  uint32_t Outside;
  uint32_t Inside;
  FlatPtrMap<Symbol *, unsigned> DefDepth;

  void walk(Tree *T, unsigned Depth) {
    if ((T->kindsBelow() & (Depth ? Inside : Outside)) == 0)
      return;
    if (auto *VD = dyn_cast<ValDef>(T)) {
      Symbol *S = VD->sym();
      if (S->is(SymFlag::Local) && S->is(SymFlag::Mutable) &&
          !S->is(SymFlag::Field)) {
        if (unsigned *D = DefDepth.find(S))
          *D = Depth;
        else
          DefDepth.insert(S, Depth);
      }
    }
    if (auto *Id = dyn_cast<Ident>(T)) {
      const unsigned *D = DefDepth.find(Id->sym());
      if (D && *D != Depth)
        Boxed.insert(Id->sym(), true);
    }
    unsigned ChildDepth = isa<Closure>(T) ? Depth + 1 : Depth;
    for (const TreePtr &K : T->kids())
      if (K)
        walk(K.get(), ChildDepth);
  }
};
} // namespace

void CapturedVarsPhase::prepareForUnit(PhaseRunContext &Ctx) {
  Boxed.clear();
  uint32_t Outside = KindSet::all().bits();
  uint32_t Inside = Outside;
  if (Ctx.pruneSubtrees()) {
    Outside = KindSet({TreeKind::ValDef, TreeKind::Closure}).bits();
    Inside = KindSet({TreeKind::ValDef, TreeKind::Closure, TreeKind::Ident})
                 .bits();
  }
  CaptureScan Scan{Boxed, Outside, Inside, {}};
  Scan.walk(Ctx.Unit.Root.get(), 0);
}

TreePtr CapturedVarsPhase::transformIdent(Ident *T, PhaseRunContext &Ctx) {
  Symbol *Sym = T->sym();
  if (!Boxed.find(Sym))
    return TreePtr(T);
  // x  ->  x.elem  (x now holds a Ref box).
  const Type *ValueTy =
      Sym->is(SymFlag::Boxed)
          ? cast<ClassType>(Sym->info())
                ->cls()
                ->findDeclaredMember(Ctx.syms().std().Elem)
                ->info()
          : T->type();
  ClassSymbol *RefCls = Ctx.syms().refClassFor(ValueTy);
  const Type *RefTy = Ctx.types().classType(RefCls);
  Symbol *Elem = RefCls->findDeclaredMember(Ctx.syms().std().Elem);
  TreePtr Ref = Ctx.trees().makeIdent(T->loc(), Sym, RefTy);
  return Ctx.trees().makeSelect(T->loc(), std::move(Ref), Elem, ValueTy);
}

TreePtr CapturedVarsPhase::transformValDef(ValDef *T, PhaseRunContext &Ctx) {
  Symbol *Sym = T->sym();
  if (!Boxed.find(Sym) || Sym->is(SymFlag::Boxed))
    return TreePtr(T);
  const Type *ValueTy = Sym->info();
  ClassSymbol *RefCls = Ctx.syms().refClassFor(ValueTy);
  const Type *RefTy = Ctx.types().classType(RefCls);
  Sym->setInfo(RefTy);
  Sym->setFlag(SymFlag::Boxed);
  Sym->clearFlag(SymFlag::Mutable); // the binding itself is now stable
  TreeList Args;
  if (T->rhs())
    Args.push_back(TreePtr(T->rhs()));
  else
    Args.push_back(makeUnitLit(Ctx, T->loc()));
  TreePtr Box = Ctx.trees().makeNew(T->loc(), RefTy, std::move(Args));
  return Ctx.trees().makeValDef(T->loc(), Sym, std::move(Box));
}

TreePtr CapturedVarsPhase::transformAssign(Assign *T, PhaseRunContext &Ctx) {
  // Reads and writes are both covered by transformIdent (the lhs Ident
  // becomes a Select of `elem`, which Assign stores through).
  (void)Ctx;
  return TreePtr(T);
}
