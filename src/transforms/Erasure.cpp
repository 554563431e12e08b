//===----------------------------------------------------------------------===//
///
/// \file
/// The Erasure megaphase (paper §6.2.2). Erases generics, unions,
/// intersections, function and by-name types to the runtime model. It
/// modifies the types of many trees and mutates the global symbol table,
/// which is why it cannot be fused with other phases: it violates fusion
/// rule 2 (later phases could not handle half-erased trees) and rule 3
/// (it assumes Splitter finished the entire compilation unit).
///
//===----------------------------------------------------------------------===//

#include "transforms/Phases.h"

#include "ast/TreeUtils.h"

#include <cassert>

using namespace mpc;

ErasurePhase::ErasurePhase()
    : Phase("Erasure", "rewrites types to the runtime model, erasing type "
                       "parameters, unions and refinements") {
  addRunsAfterGroupsOf("Splitter");
  addRunsAfterGroupsOf("ElimByName");
}

/// Nearest common class ancestor for erased unions.
static ClassSymbol *commonAncestor(ClassSymbol *A, ClassSymbol *B) {
  if (!A || !B)
    return nullptr;
  if (B->derivesFrom(A))
    return A;
  std::vector<ClassSymbol *> Ancestors;
  A->collectAncestors(Ancestors);
  ClassSymbol *Best = nullptr;
  for (ClassSymbol *Anc : Ancestors) {
    if (!B->derivesFrom(Anc))
      continue;
    if (!Best || Anc->derivesFrom(Best))
      Best = Anc;
  }
  return Best;
}

const Type *ErasurePhase::eraseType(const Type *T, CompilerContext &Comp) {
  if (!T)
    return nullptr;
  TypeContext &Types = Comp.types();
  switch (T->kind()) {
  case TypeKind::Primitive:
    return T;
  case TypeKind::Class: {
    const auto *CT = cast<ClassType>(T);
    if (CT->args().empty())
      return T;
    return Types.classType(CT->cls());
  }
  case TypeKind::Array:
    return Types.arrayType(eraseType(cast<ArrayType>(T)->elem(), Comp));
  case TypeKind::Method: {
    const auto *MT = cast<MethodType>(T);
    std::vector<const Type *> Params;
    for (const Type *P : MT->params())
      Params.push_back(eraseType(P, Comp));
    return Types.methodType(std::move(Params),
                            eraseType(MT->result(), Comp));
  }
  case TypeKind::Poly:
    return eraseType(cast<PolyType>(T)->underlying(), Comp);
  case TypeKind::Function: {
    const auto *FT = cast<FunctionType>(T);
    unsigned Arity = static_cast<unsigned>(FT->params().size());
    return Types.classType(Comp.syms().functionClass(Arity));
  }
  case TypeKind::Expr:
    return Types.classType(Comp.syms().functionClass(0));
  case TypeKind::Repeated:
    return Types.arrayType(
        eraseType(cast<RepeatedType>(T)->elem(), Comp));
  case TypeKind::Union: {
    const auto *UT = cast<UnionType>(T);
    const Type *L = eraseType(UT->left(), Comp);
    const Type *R = eraseType(UT->right(), Comp);
    if (L == R)
      return L;
    if (L->isNothing())
      return R;
    if (R->isNothing())
      return L;
    ClassSymbol *Join = commonAncestor(L->classSymbol(), R->classSymbol());
    if (Join)
      return Types.classType(Join);
    return Comp.syms().objectType();
  }
  case TypeKind::Intersection:
    return eraseType(cast<IntersectionType>(T)->left(), Comp);
  case TypeKind::TypeParam:
    return Comp.syms().objectType();
  case TypeKind::Error:
    // Never reached in a clean run: the driver stops before transforms
    // when the frontend reported errors. Kept total for safety.
    return T;
  }
  return T;
}

const Type *ErasurePhase::erase(const Type *T, CompilerContext &Comp,
                                TypeMemo &Memo) {
  if (!T)
    return nullptr;
  if (const Type **Hit = Memo.find(T))
    return *Hit;
  const Type *Erased = eraseType(T, Comp);
  Memo.insert(T, Erased);
  return Erased;
}

void ErasurePhase::eraseSymbolInfos(CompilerContext &Comp, TypeMemo &Memo) {
  for (const auto &Owned : Comp.syms().allSymbols()) {
    Symbol *S = Owned.get();
    if (S->is(SymFlag::TypeParam))
      continue;
    if (const Type *Info = S->info())
      S->setInfo(erase(Info, Comp, Memo));
  }
}

TreePtr ErasurePhase::eraseTree(Tree *T, CompilerContext &Comp,
                                TypeMemo &Memo) {
  // Erase children first (postorder, like any other phase). Nothing goes
  // onto the scratch stack until a child changes, so an unchanged subtree
  // costs no slot and no refcount traffic. Slots are indexed from Base
  // because the recursion may grow (and reallocate) the buffer.
  unsigned N = T->numKids();
  size_t Base = KidScratch.size();
  bool KidsChanged = false;
  for (unsigned I = 0; I < N; ++I) {
    Tree *K = T->kid(I);
    TreePtr NK = K ? eraseTree(K, Comp, Memo) : TreePtr();
    if (!NK && !KidsChanged)
      continue;
    if (!KidsChanged) {
      KidsChanged = true;
      for (unsigned J = 0; J < I; ++J)
        KidScratch.emplace_back(T->kid(J));
    }
    KidScratch.push_back(NK ? std::move(NK) : TreePtr(K));
  }

  const Type *ErasedTy = erase(T->type(), Comp, Memo);
  TreePtr Node;
  switch (T->kind()) {
  case TreeKind::TypeApply:
  case TreeKind::New:
  case TreeKind::SeqLiteral:
  case TreeKind::Apply:
  case TreeKind::Select:
    Node = eraseNode(T, Base, KidsChanged, ErasedTy, Comp, Memo);
    break;
  default:
    if (KidsChanged) {
      Node = Comp.trees().withNewChildrenForced(T, KidScratch.data() + Base,
                                                N);
      if (ErasedTy != Node->type())
        Node = Comp.trees().withType(Node.get(), ErasedTy);
    } else if (ErasedTy != T->type()) {
      Node = Comp.trees().withType(T, ErasedTy);
    }
    break;
  }
  KidScratch.resize(Base);
  return Node;
}

TreePtr ErasurePhase::eraseNode(Tree *T, size_t Base, bool KidsChanged,
                                const Type *ErasedTy, CompilerContext &Comp,
                                TypeMemo &Memo) {
  TreeContext &Trees = Comp.trees();
  unsigned N = T->numKids();
  // The Legacy baseline (Fig. 9) rebuilds every node of these kinds;
  // otherwise one whose children, type and payload are unchanged is kept.
  bool Reuse = !KidsChanged && !Comp.options().AlwaysCopy;
  // The erased children as a span for a rebuild to move from; taken from
  // T itself when none changed.
  auto Kids = [&] {
    if (!KidsChanged)
      for (unsigned J = 0; J < N; ++J)
        KidScratch.emplace_back(T->kid(J));
    return KidScratch.data() + Base;
  };

  switch (T->kind()) {
  case TreeKind::TypeApply: {
    // Generic applications erase to their function; the isInstanceOf /
    // asInstanceOf intrinsics keep their (erased) type argument.
    auto *TA = cast<TypeApply>(T);
    Symbol *Sym = nullptr;
    if (const auto *Sel = dyn_cast<Select>(TA->fun()))
      Sym = Sel->sym();
    bool IsTest = Sym == Comp.syms().isInstanceOfMethod() ||
                  Sym == Comp.syms().asInstanceOfMethod() ||
                  Sym == Comp.syms().newArrayMethod();
    if (!IsTest)
      return KidsChanged ? std::move(KidScratch[Base]) : TreePtr(TA->fun());
    std::vector<const Type *> Args;
    for (const Type *A : TA->typeArgs())
      Args.push_back(erase(A, Comp, Memo));
    return Trees.makeTypeApply(T->loc(), std::move(Kids()[0]),
                               std::move(Args), ErasedTy);
  }
  case TreeKind::New: {
    const Type *ClsTy = erase(cast<New>(T)->classTy(), Comp, Memo);
    if (Reuse && ClsTy == cast<New>(T)->classTy() && ClsTy == T->type())
      return nullptr;
    return Trees.makeNew(T->loc(), ClsTy, Kids(), N);
  }
  case TreeKind::SeqLiteral: {
    const Type *Elem = erase(cast<SeqLiteral>(T)->elemType(), Comp, Memo);
    const Type *ArrTy = Comp.types().arrayType(Elem);
    if (Reuse && Elem == cast<SeqLiteral>(T)->elemType() &&
        ArrTy == T->type())
      return nullptr;
    return Trees.makeSeqLiteral(T->loc(), Kids(), N, Elem, ArrTy);
  }
  case TreeKind::Apply: {
    // The value has the erased result type of the (erased) function; when
    // the statically known type was more precise, insert a cast.
    Tree *Fun = KidsChanged ? KidScratch[Base].get() : T->kid(0);
    const auto *MT = dyn_cast_or_null<MethodType>(Fun->type());
    const Type *ResultTy = MT ? MT->result() : ErasedTy;
    bool Keep = Reuse && ResultTy == T->type();
    bool Cast = ResultTy != ErasedTy && ErasedTy &&
                !Comp.types().isSubtype(ResultTy, ErasedTy);
    if (Keep && !Cast)
      return nullptr;
    TreePtr Node = Keep ? TreePtr(T)
                        : TreePtr(Trees.makeApply(T->loc(), Kids(), N,
                                                  ResultTy));
    if (Cast)
      Node = Trees.makeTyped(T->loc(), std::move(Node), ErasedTy);
    return Node;
  }
  case TreeKind::Select: {
    auto *Sel = cast<Select>(T);
    Symbol *Sym = Sel->sym();
    const Type *OldTy = T->type();
    bool IsValuePos = OldTy && !isa<MethodType>(OldTy) &&
                      !isa<PolyType>(OldTy);
    // Field read: value has the erased declared type; cast if the static
    // type was more precise. Method position: erase the signature
    // recorded on the node.
    bool IsField =
        IsValuePos && Sym && Sym->info() && !isa<MethodType>(Sym->info());
    const Type *NodeTy = IsField ? Sym->info() : ErasedTy;
    bool Keep = Reuse && NodeTy == OldTy;
    bool Cast = IsField && NodeTy != ErasedTy && ErasedTy &&
                !Comp.types().isSubtype(NodeTy, ErasedTy);
    if (Keep && !Cast)
      return nullptr;
    TreePtr Node =
        Keep ? TreePtr(T)
             : TreePtr(Trees.makeSelect(T->loc(), std::move(Kids()[0]), Sym,
                                        NodeTy));
    if (Cast)
      Node = Trees.makeTyped(T->loc(), std::move(Node), ErasedTy);
    return Node;
  }
  default:
    assert(false && "eraseNode called on a kind without its own rule");
    return nullptr;
  }
}

void ErasurePhase::runOnUnit(CompilationUnit &Unit, CompilerContext &Comp) {
  TypeMemo Memo;
  // Global symbol-table rewrite happens once per pipeline run — the global
  // mutation that makes Erasure unfusable (rule 3).
  if (!SymbolsErased) {
    eraseSymbolInfos(Comp, Memo);
    SymbolsErased = true;
  }
  assert(KidScratch.empty() && "scratch leaked from a previous run");
  if (TreePtr Root = eraseTree(Unit.Root.get(), Comp, Memo))
    Unit.Root = std::move(Root);
}

/// True when \p T contains no pre-erasure type forms.
static bool typeIsErased(const Type *T) {
  if (!T)
    return true;
  switch (T->kind()) {
  case TypeKind::Primitive:
    return true;
  case TypeKind::Class:
    return cast<ClassType>(T)->args().empty();
  case TypeKind::Array:
    return typeIsErased(cast<ArrayType>(T)->elem());
  case TypeKind::Method: {
    const auto *MT = cast<MethodType>(T);
    for (const Type *P : MT->params())
      if (!typeIsErased(P))
        return false;
    return typeIsErased(MT->result());
  }
  default:
    return false;
  }
}

bool ErasurePhase::checkPostCondition(const Tree *T,
                                      CompilerContext &Comp) const {
  (void)Comp;
  if (!typeIsErased(T->type()))
    return false;
  if (const auto *VD = dyn_cast<ValDef>(T))
    return typeIsErased(VD->sym()->info());
  if (const auto *DD = dyn_cast<DefDef>(T))
    return typeIsErased(DD->sym()->info());
  return true;
}
