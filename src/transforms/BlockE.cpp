//===----------------------------------------------------------------------===//
///
/// \file
/// Fusion block E: LambdaLift, Flatten, RestoreScopes.
///
//===----------------------------------------------------------------------===//

#include "transforms/Phases.h"

#include "ast/TreeUtils.h"
#include "transforms/TransformUtils.h"
#include "transforms/TreeClone.h"

#include <algorithm>

using namespace mpc;

//===----------------------------------------------------------------------===//
// LambdaLift
//===----------------------------------------------------------------------===//

LambdaLiftPhase::LambdaLiftPhase()
    : MiniPhase("LambdaLift",
                "lifts local methods to class scope, passing free "
                "variables as parameters") {
  declareTransforms({TreeKind::Block, TreeKind::Apply, TreeKind::ClassDef});
  declarePrepares({TreeKind::ClassDef});
  // Rule 3 (paper §6.1): the whole-unit lifting analysis in
  // prepareForUnit assumes closure conversion and var boxing have
  // finished for the entire compilation unit.
  addRunsAfterGroupsOf("FunctionValues");
  addRunsAfterGroupsOf("CapturedVars");
}

void LambdaLiftPhase::prepareForClassDef(ClassDef *T, PhaseRunContext &Ctx) {
  (void)Ctx;
  ClassStack.push_back(T->sym());
}
void LambdaLiftPhase::leaveClassDef(ClassDef *T, PhaseRunContext &Ctx) {
  (void)T;
  (void)Ctx;
  ClassStack.pop_back();
}

namespace {
/// One local method found by LambdaLift's unit scan.
struct LocalMethod {
  DefDef *Def;
  ClassSymbol *Host;
  std::vector<Symbol *> Free;
  /// Other local methods referenced in the body (indices into the scan's
  /// list, in preorder, repeats kept).
  std::vector<uint32_t> Calls;
  /// Symbols of the ValDefs inside the method, params included; filled
  /// only for methods that call others (the fixpoint's only readers).
  FlatPtrMap<Symbol *, bool> ValDefs;
};

/// LambdaLift's analysis state. Locals is in preorder discovery order,
/// which fixes the order of every lifted method's free variables
/// independently of where symbols happen to be allocated.
struct LiftScan {
  /// A subtree is scanned only when its kind summary meets this mask.
  uint32_t Keep;
  std::vector<LocalMethod> Locals;
  FlatPtrMap<Symbol *, uint32_t> IndexOf;

  void findLocals(Tree *T, ClassSymbol *Host) {
    if ((T->kindsBelow() & Keep) == 0)
      return;
    if (auto *CD = dyn_cast<ClassDef>(T))
      Host = CD->sym();
    if (auto *DD = dyn_cast<DefDef>(T)) {
      Symbol *S = DD->sym();
      // Scan the whole definition (params included) so the method's own
      // parameters are not counted as free.
      if (S->is(SymFlag::Local) && S->isMethod()) {
        LocalMethod M{DD, Host, freeLocals(DD), {}, {}};
        if (const uint32_t *I = IndexOf.find(S)) {
          Locals[*I] = std::move(M);
        } else {
          IndexOf.insert(S, static_cast<uint32_t>(Locals.size()));
          Locals.push_back(std::move(M));
        }
      }
    }
    for (const TreePtr &K : T->kids())
      if (K)
        findLocals(K.get(), Host);
  }

  void findCalls(Tree *T, LocalMethod &M) {
    if (auto *Id = dyn_cast<Ident>(T))
      if (Id->sym() != M.Def->sym())
        if (const uint32_t *I = IndexOf.find(Id->sym()))
          M.Calls.push_back(*I);
    for (const TreePtr &K : T->kids())
      if (K)
        findCalls(K.get(), M);
  }

  static void findValDefs(Tree *T, LocalMethod &M) {
    if (auto *VD = dyn_cast<ValDef>(T))
      M.ValDefs.insert(VD->sym(), true);
    for (const TreePtr &K : T->kids())
      if (K)
        findValDefs(K.get(), M);
  }
};
} // namespace

void LambdaLiftPhase::prepareForUnit(PhaseRunContext &Ctx) {
  Lifted.clear();
  Pending.clear();
  ClassStack.clear();

  // Pass 1: find local methods, their hosting classes, and direct free
  // variables; record call edges between local methods.
  LiftScan Scan{Ctx.pruneSubtrees() ? KindSet({TreeKind::DefDef}).bits()
                                    : KindSet::all().bits(),
                {},
                {}};
  Scan.findLocals(Ctx.Unit.Root.get(), nullptr);
  std::vector<LocalMethod> &Locals = Scan.Locals;
  for (LocalMethod &M : Locals) {
    if (Tree *Rhs = M.Def->rhs())
      Scan.findCalls(Rhs, M);
    if (!M.Calls.empty())
      LiftScan::findValDefs(M.Def, M);
  }

  // Pass 2: transitive closure of free variables along call edges, so a
  // caller can supply its callee's environment.
  bool ChangedFV = true;
  while (ChangedFV) {
    ChangedFV = false;
    for (LocalMethod &M : Locals) {
      for (uint32_t Callee : M.Calls) {
        for (Symbol *FV : Locals[Callee].Free) {
          // The callee's own (new) params are not free in the caller, nor
          // are variables defined inside this very method.
          if (std::find(M.Free.begin(), M.Free.end(), FV) == M.Free.end() &&
              !M.ValDefs.find(FV)) {
            M.Free.push_back(FV);
            ChangedFV = true;
          }
        }
      }
    }
  }

  // Pass 3: retarget symbols (owner, signature) — the new signatures are
  // visible to every call site in this unit's traversal.
  TypeContext &Types = Ctx.types();
  for (LocalMethod &M : Locals) {
    Symbol *Sym = M.Def->sym();
    const auto *MT = cast<MethodType>(Sym->info());
    std::vector<const Type *> Params;
    for (Symbol *FV : M.Free)
      Params.push_back(FV->info());
    for (const Type *P : MT->params())
      Params.push_back(P);
    Sym->setInfo(Types.methodType(std::move(Params), MT->result()));
    Sym->setFlag(SymFlag::Lifted | SymFlag::Private | SymFlag::Synthetic);
    Sym->clearFlag(SymFlag::Local);
    if (M.Host)
      Sym->setOwner(M.Host);
    Lifted.insert(Sym, LiftInfo{std::move(M.Free), M.Host});
  }
}

TreePtr LambdaLiftPhase::transformApply(Apply *T, PhaseRunContext &Ctx) {
  auto *Id = dyn_cast<Ident>(T->fun());
  if (!Id)
    return TreePtr(T);
  const LiftInfo *Info = Lifted.find(Id->sym());
  if (!Info)
    return TreePtr(T);
  const LiftInfo &LI = *Info;
  Symbol *Sym = Id->sym();
  TreeContext &Trees = Ctx.trees();
  // f(args)  ->  this.f$lifted(fv1, ..., fvN, args).
  TreePtr Recv = LI.HostClass
                     ? TreePtr(makeSelfRef(Ctx, T->loc(), LI.HostClass))
                     : TreePtr(Trees.makeIdent(T->loc(), Sym, Sym->info()));
  TreePtr Fun =
      LI.HostClass
          ? TreePtr(Trees.makeSelect(T->loc(), std::move(Recv), Sym,
                                     Sym->info()))
          : std::move(Recv);
  TreeList Args;
  for (Symbol *FV : LI.FreeVars)
    Args.push_back(Trees.makeIdent(T->loc(), FV, FV->info()));
  for (unsigned I = 0; I < T->numArgs(); ++I)
    Args.push_back(TreePtr(T->arg(I)));
  return Trees.makeApply(T->loc(), std::move(Fun), std::move(Args),
                         T->type());
}

TreePtr LambdaLiftPhase::transformBlock(Block *T, PhaseRunContext &Ctx) {
  // Remove lifted local methods from blocks; clone them (with their free
  // variables turned into parameters) into the hosting class.
  bool Any = false;
  for (unsigned I = 0; I < T->numStats(); ++I)
    if (auto *DD = dyn_cast_or_null<DefDef>(T->stat(I)))
      if (Lifted.find(DD->sym()))
        Any = true;
  if (!Any)
    return TreePtr(T);

  TreeContext &Trees = Ctx.trees();
  TreeList Stats;
  for (unsigned I = 0; I < T->numStats(); ++I) {
    Tree *Stat = T->stat(I);
    auto *DD = dyn_cast_or_null<DefDef>(Stat);
    if (!DD || !Lifted.find(DD->sym())) {
      Stats.push_back(TreePtr(Stat));
      continue;
    }
    Symbol *Sym = DD->sym();
    const LiftInfo &LI = *Lifted.find(Sym);
    // Fresh parameters for the free variables; references in the body are
    // redirected to them.
    SymbolMap Subst;
    TreeList Params;
    for (Symbol *FV : LI.FreeVars) {
      Symbol *P = Ctx.syms().makeTerm(
          FV->name(), Sym,
          SymFlag::Param | SymFlag::Local | SymFlag::Synthetic,
          FV->info());
      Subst[FV] = P;
      Params.push_back(Trees.makeValDef(DD->loc(), P, nullptr));
    }
    for (unsigned K = 0; K < DD->numParamsTotal(); ++K)
      Params.push_back(TreePtr(DD->paramAt(K)));
    TreePtr NewRhs = cloneTree(Ctx.Comp, DD->rhs(), Subst, Sym);
    uint32_t Total = static_cast<uint32_t>(Params.size());
    TreePtr Def = Trees.makeDefDef(DD->loc(), Sym, {Total},
                                   std::move(Params), std::move(NewRhs));
    Pending[LI.HostClass].push_back(std::move(Def));
  }
  TreePtr Expr = TreePtr(T->expr());
  return Trees.makeBlock(T->loc(), std::move(Stats), std::move(Expr));
}

TreePtr LambdaLiftPhase::transformClassDef(ClassDef *T,
                                           PhaseRunContext &Ctx) {
  auto It = Pending.find(T->sym());
  if (It == Pending.end() || It->second.empty())
    return TreePtr(T);
  TreeList Body = T->kids();
  for (TreePtr &Def : It->second) {
    T->sym()->enterMember(cast<DefDef>(Def.get())->sym());
    Body.push_back(std::move(Def));
  }
  It->second.clear();
  return Ctx.trees().makeClassDef(T->loc(), T->sym(), std::move(Body));
}

bool LambdaLiftPhase::checkPostCondition(const Tree *T,
                                         CompilerContext &Comp) const {
  (void)Comp;
  // No local methods remain inside blocks.
  if (const auto *B = dyn_cast<Block>(T)) {
    for (unsigned I = 0; I < B->numStats(); ++I)
      if (isa<DefDef>(B->stat(I)))
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Flatten
//===----------------------------------------------------------------------===//

FlattenPhase::FlattenPhase()
    : MiniPhase("Flatten", "lifts all inner classes to package scope") {
  declareTransforms({TreeKind::ClassDef, TreeKind::PackageDef});
  addRunsAfter("LambdaLift");
}

TreePtr FlattenPhase::transformClassDef(ClassDef *T, PhaseRunContext &Ctx) {
  bool Any = false;
  for (const TreePtr &Member : T->kids())
    if (Member && isa<ClassDef>(Member.get()))
      Any = true;
  if (!Any)
    return TreePtr(T);
  TreeList Body;
  for (const TreePtr &Member : T->kids()) {
    if (Member && isa<ClassDef>(Member.get())) {
      auto *Inner = cast<ClassDef>(Member.get());
      Inner->sym()->setOwner(Ctx.syms().rootPackage());
      T->sym()->removeMember(Inner->sym());
      PendingTop.push_back(Member);
      continue;
    }
    Body.push_back(Member);
  }
  return Ctx.trees().makeClassDef(T->loc(), T->sym(), std::move(Body));
}

TreePtr FlattenPhase::transformPackageDef(PackageDef *T,
                                          PhaseRunContext &Ctx) {
  if (PendingTop.empty())
    return TreePtr(T);
  TreeList Kids = T->kids();
  for (TreePtr &Cls : PendingTop)
    Kids.push_back(std::move(Cls));
  PendingTop.clear();
  return Ctx.trees().makePackageDef(T->loc(), T->pkgName(),
                                    std::move(Kids));
}

bool FlattenPhase::checkPostCondition(const Tree *T,
                                      CompilerContext &Comp) const {
  (void)Comp;
  // No class definitions nested inside class bodies.
  if (const auto *CD = dyn_cast<ClassDef>(T)) {
    for (const TreePtr &Member : CD->kids())
      if (Member && isa<ClassDef>(Member.get()))
        return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// RestoreScopes
//===----------------------------------------------------------------------===//

RestoreScopesPhase::RestoreScopesPhase()
    : MiniPhase("RestoreScopes",
                "repairs scopes invalidated by moving definitions") {
  declareTransforms({TreeKind::ClassDef});
  addRunsAfter("Flatten");
}

TreePtr RestoreScopesPhase::transformClassDef(ClassDef *T,
                                              PhaseRunContext &Ctx) {
  (void)Ctx;
  ClassSymbol *Cls = T->sym();
  for (const TreePtr &Member : T->kids()) {
    if (!Member)
      continue;
    Symbol *S = nullptr;
    if (auto *VD = dyn_cast<ValDef>(Member.get()))
      S = VD->sym();
    else if (auto *DD = dyn_cast<DefDef>(Member.get()))
      S = DD->sym();
    if (!S)
      continue;
    if (S->owner() != Cls)
      S->setOwner(Cls);
    if (!Cls->hasMember(S))
      Cls->enterMember(S);
  }
  return TreePtr(T);
}

bool RestoreScopesPhase::checkPostCondition(const Tree *T,
                                            CompilerContext &Comp) const {
  (void)Comp;
  // Every definition in a class body is owned by and a member of it.
  if (const auto *CD = dyn_cast<ClassDef>(T)) {
    ClassSymbol *Cls = CD->sym();
    for (const TreePtr &Member : CD->kids()) {
      if (!Member)
        continue;
      Symbol *S = nullptr;
      if (const auto *VD = dyn_cast<ValDef>(Member.get()))
        S = VD->sym();
      else if (const auto *DD = dyn_cast<DefDef>(Member.get()))
        S = DD->sym();
      if (S && (S->owner() != Cls || !Cls->hasMember(S)))
        return false;
    }
  }
  return true;
}
