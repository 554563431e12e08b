#include "ast/Types.h"

#include "ast/Symbols.h"

#include <cassert>

using namespace mpc;

bool Type::isPrim(PrimKind P) const {
  const auto *PT = dyn_cast<PrimitiveType>(this);
  return PT && PT->prim() == P;
}

bool Type::isValueType() const {
  const auto *PT = dyn_cast<PrimitiveType>(this);
  if (!PT)
    return false;
  switch (PT->prim()) {
  case PrimKind::Int:
  case PrimKind::Boolean:
  case PrimKind::Double:
  case PrimKind::Unit:
    return true;
  default:
    return false;
  }
}

ClassSymbol *Type::classSymbol() const {
  if (const auto *CT = dyn_cast<ClassType>(this))
    return CT->cls();
  return nullptr;
}

const Type *Type::resultType() const {
  switch (K) {
  case TypeKind::Method:
    return cast<MethodType>(this)->result();
  case TypeKind::Function:
    return cast<FunctionType>(this)->result();
  case TypeKind::Poly:
    return cast<PolyType>(this)->underlying()->resultType();
  case TypeKind::Expr:
    return cast<ExprType>(this)->result();
  default:
    return nullptr;
  }
}

const Type *Type::widenByName() const {
  if (const auto *ET = dyn_cast<ExprType>(this))
    return ET->result();
  return this;
}

std::string Type::show() const {
  std::string S;
  print(S);
  return S;
}

namespace {
void printList(std::string &Out, const std::vector<const Type *> &Tys) {
  for (size_t I = 0; I < Tys.size(); ++I) {
    if (I)
      Out += ", ";
    Tys[I]->print(Out);
  }
}

/// Binding strength of a rendering, loosest first: arrow forms extend as
/// far right as they can, `&` binds tighter than `|`, the rest are atoms.
enum class Prec : uint8_t { Arrow, Or, And, Atom };

Prec precedence(const Type *T) {
  switch (T->kind()) {
  case TypeKind::Function:
  case TypeKind::Method:
  case TypeKind::Poly:
  case TypeKind::Expr:
    return Prec::Arrow;
  case TypeKind::Union:
    return Prec::Or;
  case TypeKind::Intersection:
    return Prec::And;
  default:
    return Prec::Atom;
  }
}

/// Prints \p T, parenthesized when it binds looser than \p Min.
void printOperand(std::string &Out, const Type *T, Prec Min) {
  bool Paren = precedence(T) < Min;
  if (Paren)
    Out += '(';
  T->print(Out);
  if (Paren)
    Out += ')';
}

/// `L Op R` for a left-associative operator of strength \p P: the right
/// operand needs one level more, so `A | (B | C)` keeps its parentheses.
void printBinary(std::string &Out, const Type *L, const char *Op,
                 const Type *R, Prec P) {
  printOperand(Out, L, P);
  Out += Op;
  printOperand(Out, R, Prec(uint8_t(P) + 1));
}
} // namespace

void Type::print(std::string &Out) const {
  switch (K) {
  case TypeKind::Primitive:
    switch (cast<PrimitiveType>(this)->prim()) {
    case PrimKind::Any:
      Out += "Any";
      return;
    case PrimKind::Nothing:
      Out += "Nothing";
      return;
    case PrimKind::Null:
      Out += "Null";
      return;
    case PrimKind::Unit:
      Out += "Unit";
      return;
    case PrimKind::Int:
      Out += "Int";
      return;
    case PrimKind::Boolean:
      Out += "Boolean";
      return;
    case PrimKind::Double:
      Out += "Double";
      return;
    }
    break;
  case TypeKind::Class: {
    const auto *CT = cast<ClassType>(this);
    Out += CT->cls()->name().text();
    if (!CT->args().empty()) {
      Out += '[';
      printList(Out, CT->args());
      Out += ']';
    }
    return;
  }
  case TypeKind::Array:
    Out += "Array[";
    cast<ArrayType>(this)->elem()->print(Out);
    Out += ']';
    return;
  case TypeKind::Method: {
    const auto *MT = cast<MethodType>(this);
    Out += '(';
    printList(Out, MT->params());
    Out += ')';
    MT->result()->print(Out);
    return;
  }
  case TypeKind::Poly: {
    const auto *PT = cast<PolyType>(this);
    Out += '[';
    for (size_t I = 0; I < PT->typeParams().size(); ++I) {
      if (I)
        Out += ", ";
      Out += PT->typeParams()[I]->name().text();
    }
    Out += ']';
    PT->underlying()->print(Out);
    return;
  }
  case TypeKind::Function: {
    const auto *FT = cast<FunctionType>(this);
    Out += '(';
    printList(Out, FT->params());
    Out += ") => ";
    FT->result()->print(Out);
    return;
  }
  case TypeKind::Expr:
    Out += "=> ";
    cast<ExprType>(this)->result()->print(Out);
    return;
  case TypeKind::Repeated:
    printOperand(Out, cast<RepeatedType>(this)->elem(), Prec::Atom);
    Out += '*';
    return;
  case TypeKind::Union:
    printBinary(Out, cast<UnionType>(this)->left(), " | ",
                cast<UnionType>(this)->right(), Prec::Or);
    return;
  case TypeKind::Intersection:
    printBinary(Out, cast<IntersectionType>(this)->left(), " & ",
                cast<IntersectionType>(this)->right(), Prec::And);
    return;
  case TypeKind::TypeParam:
    Out += cast<TypeParamRef>(this)->param()->name().text();
    return;
  case TypeKind::Error:
    Out += "<error>";
    return;
  }
  Out += '?';
}

//===----------------------------------------------------------------------===//
// TypeContext
//===----------------------------------------------------------------------===//

TypeContext::TypeContext() {
  for (size_t I = 0; I < NumPrims; ++I)
    Prims[I] = SingletonArena.make<PrimitiveType>(static_cast<PrimKind>(I));
  ErrorTy = SingletonArena.make<ErrorType>();
}

TypeContext::~TypeContext() {
  // Arena-owned types still need their destructors (they hold vectors);
  // the arena then releases the storage wholesale.
  for (const Type *T : Owned)
    T->~Type();
  for (const Type *P : Prims)
    P->~Type();
  ErrorTy->~Type();
}

void TypeContext::reset() {
  for (const Type *T : Owned)
    T->~Type();
  Owned.clear();
  Slots.assign(Slots.size(), Slot());
  KeyPool.clear();
  KeyScratch.clear();
  TypeArena.reset();
}

static uint64_t hashKey(uint32_t Tag, const uint64_t *Words,
                        size_t NumWords) {
  uint64_t H = 0x9e3779b97f4a7c15ULL ^ Tag;
  for (size_t I = 0; I < NumWords; ++I)
    H ^= Words[I] + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

void TypeContext::growSlots() {
  std::vector<Slot> Old = std::move(Slots);
  Slots.assign(Old.empty() ? 512 : Old.size() * 2, Slot());
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (!S.T)
      continue;
    for (size_t I = S.Hash & Mask;; I = (I + 1) & Mask) {
      if (!Slots[I].T) {
        Slots[I] = S;
        break;
      }
    }
  }
}

template <typename T, typename... Args>
const Type *TypeContext::intern(uint32_t Tag, const uint64_t *Words,
                                size_t NumWords, Args &&...CtorArgs) {
  if (Slots.empty() || Owned.size() * 4 >= Slots.size() * 3)
    growSlots();
  uint64_t H = hashKey(Tag, Words, NumWords);
  size_t Mask = Slots.size() - 1;
  size_t I = H & Mask;
  for (;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (!S.T)
      break;
    if (S.Hash == H && S.Tag == Tag && S.KeyLen == NumWords) {
      const uint64_t *Stored = KeyPool.data() + S.KeyOff;
      size_t J = 0;
      while (J < NumWords && Stored[J] == Words[J])
        ++J;
      if (J == NumWords)
        return S.T;
    }
  }

  const Type *Result = TypeArena.make<T>(std::forward<Args>(CtorArgs)...);
  Owned.push_back(Result);
  Slot &S = Slots[I];
  S.T = Result;
  S.Hash = H;
  S.Tag = Tag;
  S.KeyOff = static_cast<uint32_t>(KeyPool.size());
  S.KeyLen = static_cast<uint32_t>(NumWords);
  KeyPool.insert(KeyPool.end(), Words, Words + NumWords);
  return Result;
}

static uint64_t word(const void *P) {
  return reinterpret_cast<uint64_t>(P);
}

const Type *TypeContext::classType(ClassSymbol *Cls,
                                   std::vector<const Type *> Args) {
  KeyScratch.clear();
  KeyScratch.push_back(word(Cls));
  for (const Type *A : Args)
    KeyScratch.push_back(word(A));
  return intern<ClassType>(0, KeyScratch.data(), KeyScratch.size(), Cls,
                           std::move(Args));
}

const Type *TypeContext::arrayType(const Type *Elem) {
  uint64_t W[1] = {word(Elem)};
  return intern<ArrayType>(1, W, 1, Elem);
}

const Type *TypeContext::methodType(std::vector<const Type *> Params,
                                    const Type *Result) {
  KeyScratch.clear();
  KeyScratch.push_back(word(Result));
  for (const Type *P : Params)
    KeyScratch.push_back(word(P));
  return intern<MethodType>(2, KeyScratch.data(), KeyScratch.size(),
                            std::move(Params), Result);
}

const Type *TypeContext::polyType(std::vector<Symbol *> TypeParams,
                                  const Type *Underlying) {
  KeyScratch.clear();
  KeyScratch.push_back(word(Underlying));
  for (Symbol *P : TypeParams)
    KeyScratch.push_back(word(P));
  return intern<PolyType>(3, KeyScratch.data(), KeyScratch.size(),
                          std::move(TypeParams), Underlying);
}

const Type *TypeContext::functionType(std::vector<const Type *> Params,
                                      const Type *Result) {
  KeyScratch.clear();
  KeyScratch.push_back(word(Result));
  for (const Type *P : Params)
    KeyScratch.push_back(word(P));
  return intern<FunctionType>(4, KeyScratch.data(), KeyScratch.size(),
                              std::move(Params), Result);
}

const Type *TypeContext::exprType(const Type *Result) {
  uint64_t W[1] = {word(Result)};
  return intern<ExprType>(5, W, 1, Result);
}

const Type *TypeContext::repeatedType(const Type *Elem) {
  uint64_t W[1] = {word(Elem)};
  return intern<RepeatedType>(6, W, 1, Elem);
}

const Type *TypeContext::unionType(const Type *L, const Type *R) {
  if (L == R)
    return L;
  uint64_t W[2] = {word(L), word(R)};
  return intern<UnionType>(7, W, 2, L, R);
}

const Type *TypeContext::intersectionType(const Type *L, const Type *R) {
  if (L == R)
    return L;
  uint64_t W[2] = {word(L), word(R)};
  return intern<IntersectionType>(8, W, 2, L, R);
}

const Type *TypeContext::typeParamRef(Symbol *Param) {
  uint64_t W[1] = {word(Param)};
  return intern<TypeParamRef>(9, W, 1, Param);
}

const Type *TypeContext::substitute(const Type *T,
                                    const std::vector<Symbol *> &From,
                                    const std::vector<const Type *> &To) {
  assert(From.size() == To.size() && "substitution arity mismatch");
  if (From.empty() || !T)
    return T;
  switch (T->kind()) {
  case TypeKind::Primitive:
  case TypeKind::Error:
    return T;
  case TypeKind::TypeParam: {
    Symbol *P = cast<TypeParamRef>(T)->param();
    for (size_t I = 0; I < From.size(); ++I)
      if (From[I] == P)
        return To[I];
    return T;
  }
  case TypeKind::Class: {
    const auto *CT = cast<ClassType>(T);
    if (CT->args().empty())
      return T;
    std::vector<const Type *> NewArgs;
    NewArgs.reserve(CT->args().size());
    for (const Type *A : CT->args())
      NewArgs.push_back(substitute(A, From, To));
    return classType(CT->cls(), std::move(NewArgs));
  }
  case TypeKind::Array:
    return arrayType(substitute(cast<ArrayType>(T)->elem(), From, To));
  case TypeKind::Method: {
    const auto *MT = cast<MethodType>(T);
    std::vector<const Type *> NewParams;
    NewParams.reserve(MT->params().size());
    for (const Type *P : MT->params())
      NewParams.push_back(substitute(P, From, To));
    return methodType(std::move(NewParams),
                      substitute(MT->result(), From, To));
  }
  case TypeKind::Poly: {
    const auto *PT = cast<PolyType>(T);
    return polyType(PT->typeParams(),
                    substitute(PT->underlying(), From, To));
  }
  case TypeKind::Function: {
    const auto *FT = cast<FunctionType>(T);
    std::vector<const Type *> NewParams;
    NewParams.reserve(FT->params().size());
    for (const Type *P : FT->params())
      NewParams.push_back(substitute(P, From, To));
    return functionType(std::move(NewParams),
                        substitute(FT->result(), From, To));
  }
  case TypeKind::Expr:
    return exprType(substitute(cast<ExprType>(T)->result(), From, To));
  case TypeKind::Repeated:
    return repeatedType(substitute(cast<RepeatedType>(T)->elem(), From, To));
  case TypeKind::Union:
    return unionType(substitute(cast<UnionType>(T)->left(), From, To),
                     substitute(cast<UnionType>(T)->right(), From, To));
  case TypeKind::Intersection:
    return intersectionType(
        substitute(cast<IntersectionType>(T)->left(), From, To),
        substitute(cast<IntersectionType>(T)->right(), From, To));
  }
  return T;
}

bool TypeContext::isSubtype(const Type *A, const Type *B) {
  if (A == B)
    return true;
  if (!A || !B)
    return false;
  // Nothing is a subtype of everything; everything is a subtype of Any.
  if (A->isNothing() || B->isAny())
    return true;
  // ErrorType absorbs in both directions: the root cause was already
  // diagnosed, so conformance checks involving it succeed silently.
  if (A->isError() || B->isError())
    return true;
  // Null is a subtype of all reference types.
  if (A->isPrim(PrimKind::Null))
    return B->kind() == TypeKind::Class || B->kind() == TypeKind::Array ||
           B->kind() == TypeKind::Function || B->kind() == TypeKind::Union;
  // Union left side: (A1 | A2) <: B iff both halves conform.
  if (const auto *UA = dyn_cast<UnionType>(A))
    return isSubtype(UA->left(), B) && isSubtype(UA->right(), B);
  // Union right side: A <: (B1 | B2) if A conforms to either half.
  if (const auto *UB = dyn_cast<UnionType>(B))
    return isSubtype(A, UB->left()) || isSubtype(A, UB->right());
  // Intersection right side: A <: (B1 & B2) iff A conforms to both.
  if (const auto *IB = dyn_cast<IntersectionType>(B))
    return isSubtype(A, IB->left()) && isSubtype(A, IB->right());
  // Intersection left side: (A1 & A2) <: B if either half conforms.
  if (const auto *IA = dyn_cast<IntersectionType>(A))
    return isSubtype(IA->left(), B) || isSubtype(IA->right(), B);
  // By-name types conform when their results do.
  if (const auto *EA = dyn_cast<ExprType>(A)) {
    if (const auto *EB = dyn_cast<ExprType>(B))
      return isSubtype(EA->result(), EB->result());
    return false;
  }
  // Nominal class subtyping with invariant type arguments.
  if (const auto *CA = dyn_cast<ClassType>(A)) {
    const auto *CB = dyn_cast<ClassType>(B);
    if (!CB)
      return false;
    if (CA->cls() == CB->cls())
      return CA->args() == CB->args();
    // Walk A's parents with substituted type arguments.
    for (const Type *Parent : CA->cls()->parents()) {
      const Type *SubstParent = substitute(
          Parent, CA->cls()->typeParams(), CA->args());
      if (isSubtype(SubstParent, B))
        return true;
    }
    return false;
  }
  // Arrays: invariant element, and Array[T] <: Object.
  if (const auto *AA = dyn_cast<ArrayType>(A)) {
    if (const auto *AB = dyn_cast<ArrayType>(B))
      return AA->elem() == AB->elem();
    if (const auto *CB = dyn_cast<ClassType>(B))
      return CB->cls()->superClass() == nullptr && CB->args().empty();
    return false;
  }
  // Functions: exact arity, invariant (kept simple on purpose).
  if (const auto *FA = dyn_cast<FunctionType>(A)) {
    if (const auto *FB = dyn_cast<FunctionType>(B))
      return FA->params() == FB->params() &&
             isSubtype(FA->result(), FB->result());
    // A function conforms to the root class (it erases to an object).
    if (const auto *CB = dyn_cast<ClassType>(B))
      return CB->cls()->superClass() == nullptr && CB->args().empty();
    return false;
  }
  if (const auto *RA = dyn_cast<RepeatedType>(A))
    return isSubtype(arrayType(RA->elem()), B);
  return false;
}

const Type *TypeContext::lub(const Type *A, const Type *B) {
  if (A == B)
    return A;
  if (!A)
    return B;
  if (!B)
    return A;
  if (A->isNothing())
    return B;
  if (B->isNothing())
    return A;
  // The error type is absorbed by the healthy side so an errored branch
  // does not poison the join (and the If/Match keeps a useful type).
  if (A->isError())
    return B;
  if (B->isError())
    return A;
  if (isSubtype(A, B))
    return B;
  if (isSubtype(B, A))
    return A;
  // Unrelated types join as a union (Scala 3's un-widened inference).
  // A union conforms everywhere a class join would — (A|B) <: C whenever
  // both A <: C and B <: C — and it keeps Splitter/Erasure honest.
  return unionType(A, B);
}
