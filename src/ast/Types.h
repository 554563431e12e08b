//===----------------------------------------------------------------------===//
///
/// \file
/// The MiniScala type representation. Types are hash-consed in a TypeContext
/// (pointer equality == structural equality) and live as long as the
/// context, so trees and symbols store bare Type pointers.
///
/// The repertoire intentionally matches what the paper's phases need:
/// unions and intersections (Splitter / Erasure, §6.2.2), by-name (ExprType,
/// for ElimByName), repeated params (ElimRepeated), generic class and
/// method types (Erasure), and function types (FunctionValues/LambdaLift).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_AST_TYPES_H
#define MPC_AST_TYPES_H

#include "support/Arena.h"
#include "support/Casting.h"
#include "support/NameTable.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace mpc {

class ClassSymbol;
class Symbol;
class TypeContext;

/// Discriminator for the Type hierarchy.
enum class TypeKind : uint8_t {
  Primitive,
  Class,
  Array,
  Method,
  Poly,
  Function,
  Expr,     // by-name: =>T
  Repeated, // vararg: T*
  Union,
  Intersection,
  TypeParam,
  Error, // poisoned type for diagnosed code; absorbs instead of cascades
};

/// Built-in non-class types.
enum class PrimKind : uint8_t { Any, Nothing, Null, Unit, Int, Boolean, Double };

/// Root of the type hierarchy. Immutable and interned.
class Type {
public:
  TypeKind kind() const { return K; }

  bool isPrimitive() const { return K == TypeKind::Primitive; }
  bool isPrim(PrimKind P) const;
  bool isValueType() const; // Int / Boolean / Double / Unit
  bool isNothing() const { return isPrim(PrimKind::Nothing); }
  bool isAny() const { return isPrim(PrimKind::Any); }
  bool isUnit() const { return isPrim(PrimKind::Unit); }
  bool isError() const { return K == TypeKind::Error; }

  /// For class types, the class symbol; null otherwise.
  ClassSymbol *classSymbol() const;

  /// Result type when this type is applied as a method/function; null if
  /// this is not callable.
  const Type *resultType() const;

  /// Strips by-name wrappers.
  const Type *widenByName() const;

  /// Human-readable rendering ("Int", "List[Int]", "(Int, Int)Int", ...).
  std::string show() const;
  /// Appends show() to \p Out.
  void print(std::string &Out) const;

  virtual ~Type() = default;

protected:
  explicit Type(TypeKind K) : K(K) {}

private:
  TypeKind K;
};

/// Any / Nothing / Null / Unit / Int / Boolean / Double.
class PrimitiveType : public Type {
public:
  explicit PrimitiveType(PrimKind P) : Type(TypeKind::Primitive), Prim(P) {}
  PrimKind prim() const { return Prim; }
  static bool classof(const Type *T) {
    return T->kind() == TypeKind::Primitive;
  }

private:
  PrimKind Prim;
};

/// Reference to a class or trait, possibly with type arguments.
class ClassType : public Type {
public:
  ClassType(ClassSymbol *Cls, std::vector<const Type *> Args)
      : Type(TypeKind::Class), Cls(Cls), Args(std::move(Args)) {}
  ClassSymbol *cls() const { return Cls; }
  const std::vector<const Type *> &args() const { return Args; }
  static bool classof(const Type *T) { return T->kind() == TypeKind::Class; }

private:
  ClassSymbol *Cls;
  std::vector<const Type *> Args;
};

/// Array[T]; invariant.
class ArrayType : public Type {
public:
  explicit ArrayType(const Type *Elem) : Type(TypeKind::Array), Elem(Elem) {}
  const Type *elem() const { return Elem; }
  static bool classof(const Type *T) { return T->kind() == TypeKind::Array; }

private:
  const Type *Elem;
};

/// (T1, ..., Tn)R — one parameter list. Curried methods nest MethodTypes
/// until the Uncurry miniphase flattens them.
class MethodType : public Type {
public:
  MethodType(std::vector<const Type *> Params, const Type *Result)
      : Type(TypeKind::Method), Params(std::move(Params)), Result(Result) {}
  const std::vector<const Type *> &params() const { return Params; }
  const Type *result() const { return Result; }
  static bool classof(const Type *T) { return T->kind() == TypeKind::Method; }

private:
  std::vector<const Type *> Params;
  const Type *Result;
};

/// [T1, ..., Tn](method type) — a generic method signature.
class PolyType : public Type {
public:
  PolyType(std::vector<Symbol *> TypeParams, const Type *Underlying)
      : Type(TypeKind::Poly), TypeParams(std::move(TypeParams)),
        Underlying(Underlying) {}
  const std::vector<Symbol *> &typeParams() const { return TypeParams; }
  const Type *underlying() const { return Underlying; }
  static bool classof(const Type *T) { return T->kind() == TypeKind::Poly; }

private:
  std::vector<Symbol *> TypeParams;
  const Type *Underlying;
};

/// (T1, ..., Tn) => R — the type of lambdas; erased to FunctionN.
class FunctionType : public Type {
public:
  FunctionType(std::vector<const Type *> Params, const Type *Result)
      : Type(TypeKind::Function), Params(std::move(Params)), Result(Result) {}
  const std::vector<const Type *> &params() const { return Params; }
  const Type *result() const { return Result; }
  static bool classof(const Type *T) {
    return T->kind() == TypeKind::Function;
  }

private:
  std::vector<const Type *> Params;
  const Type *Result;
};

/// => T, the type of a by-name parameter before ElimByName runs.
class ExprType : public Type {
public:
  explicit ExprType(const Type *Result) : Type(TypeKind::Expr), Res(Result) {}
  const Type *result() const { return Res; }
  static bool classof(const Type *T) { return T->kind() == TypeKind::Expr; }

private:
  const Type *Res;
};

/// T*, the type of a repeated (vararg) parameter before ElimRepeated runs.
class RepeatedType : public Type {
public:
  explicit RepeatedType(const Type *Elem)
      : Type(TypeKind::Repeated), Elem(Elem) {}
  const Type *elem() const { return Elem; }
  static bool classof(const Type *T) {
    return T->kind() == TypeKind::Repeated;
  }

private:
  const Type *Elem;
};

/// A | B. Eliminated (at selections) by Splitter, erased by Erasure.
class UnionType : public Type {
public:
  UnionType(const Type *L, const Type *R) : Type(TypeKind::Union), L(L), R(R) {}
  const Type *left() const { return L; }
  const Type *right() const { return R; }
  static bool classof(const Type *T) { return T->kind() == TypeKind::Union; }

private:
  const Type *L, *R;
};

/// A & B.
class IntersectionType : public Type {
public:
  IntersectionType(const Type *L, const Type *R)
      : Type(TypeKind::Intersection), L(L), R(R) {}
  const Type *left() const { return L; }
  const Type *right() const { return R; }
  static bool classof(const Type *T) {
    return T->kind() == TypeKind::Intersection;
  }

private:
  const Type *L, *R;
};

/// The poisoned type assigned to expressions and declarations that already
/// produced a diagnostic. It absorbs in subtyping (both directions) and in
/// lub so one root cause yields exactly one diagnostic: downstream checks
/// involving an ErrorType succeed silently instead of piling on secondary
/// noise. ErrorType never survives a clean frontend run — the driver never
/// hands trees to the transform pipeline once diagnostics were reported.
class ErrorType : public Type {
public:
  ErrorType() : Type(TypeKind::Error) {}
  static bool classof(const Type *T) { return T->kind() == TypeKind::Error; }
};

/// Reference to a class/method type parameter symbol.
class TypeParamRef : public Type {
public:
  explicit TypeParamRef(Symbol *Param)
      : Type(TypeKind::TypeParam), Param(Param) {}
  Symbol *param() const { return Param; }
  static bool classof(const Type *T) {
    return T->kind() == TypeKind::TypeParam;
  }

private:
  Symbol *Param;
};

/// Owns and interns all types. Construction methods return canonical
/// instances: calling them twice with equal arguments yields the same
/// pointer, so type equality throughout the compiler is pointer equality.
class TypeContext {
public:
  TypeContext();
  TypeContext(const TypeContext &) = delete;
  TypeContext &operator=(const TypeContext &) = delete;
  ~TypeContext();

  // Primitive singletons.
  const Type *anyType() const { return Prims[size_t(PrimKind::Any)]; }
  const Type *nothingType() const { return Prims[size_t(PrimKind::Nothing)]; }
  const Type *nullType() const { return Prims[size_t(PrimKind::Null)]; }
  const Type *unitType() const { return Prims[size_t(PrimKind::Unit)]; }
  const Type *intType() const { return Prims[size_t(PrimKind::Int)]; }
  const Type *booleanType() const { return Prims[size_t(PrimKind::Boolean)]; }
  const Type *doubleType() const { return Prims[size_t(PrimKind::Double)]; }
  const Type *primType(PrimKind P) const { return Prims[size_t(P)]; }

  /// The poisoned error-type singleton. Like the primitives it survives
  /// reset(): it carries no references into other tables.
  const Type *errorType() const { return ErrorTy; }

  const Type *classType(ClassSymbol *Cls,
                        std::vector<const Type *> Args = {});
  const Type *arrayType(const Type *Elem);
  const Type *methodType(std::vector<const Type *> Params, const Type *Result);
  const Type *polyType(std::vector<Symbol *> TypeParams,
                       const Type *Underlying);
  const Type *functionType(std::vector<const Type *> Params,
                           const Type *Result);
  const Type *exprType(const Type *Result);
  const Type *repeatedType(const Type *Elem);
  const Type *unionType(const Type *L, const Type *R);
  const Type *intersectionType(const Type *L, const Type *R);
  const Type *typeParamRef(Symbol *Param);

  /// Substitutes type parameters: occurrences of From[i] become To[i].
  const Type *substitute(const Type *T, const std::vector<Symbol *> &From,
                         const std::vector<const Type *> &To);

  /// Subtyping. Reflexive; Nothing <: T <: Any; nominal for classes with
  /// invariant type arguments; structural for unions/intersections and
  /// function types.
  bool isSubtype(const Type *A, const Type *B);

  /// Least upper bound approximation (exact for equal types and class
  /// hierarchies; Any as fallback).
  const Type *lub(const Type *A, const Type *B);

  /// Number of distinct interned types (for tests / stats).
  size_t internedCount() const { return Owned.size() + NumPrims; }

  /// Calls \p Fn on every distinct type of this context: the primitives,
  /// the error type, then each type interned since construction or the
  /// last reset(), in creation order.
  template <typename FnT> void forEachType(FnT &&Fn) const {
    for (const Type *P : Prims)
      Fn(P);
    Fn(ErrorTy);
    for (const Type *T : Owned)
      Fn(T);
  }

  /// Empties the interner for warm context reuse: destroys every interned
  /// type (primitive singletons excepted — they carry no references into
  /// other tables and stay valid), resets the arena and key pool, and
  /// keeps table capacity. O(live interned types).
  void reset();

private:
  // Hash-consing storage: an open-addressed slot table (linear probing,
  // cached hashes) over keys packed as (tag, word sequence) in one
  // contiguous pool, with the Type objects themselves placement-new'd
  // into a bump arena. Compared to the previous
  // std::unordered_map<Key, unique_ptr<Type>> this performs no per-probe
  // key-vector allocation, no per-entry map-node allocation, and keeps
  // interned types tightly packed in memory. Owned tracks every arena
  // type so ~TypeContext can run destructors (types hold std::vectors).
  struct Slot {
    const Type *T = nullptr;
    uint64_t Hash = 0;
    uint32_t Tag = 0;
    uint32_t KeyOff = 0;
    uint32_t KeyLen = 0;
  };

  template <typename T, typename... Args>
  const Type *intern(uint32_t Tag, const uint64_t *Words, size_t NumWords,
                     Args &&...CtorArgs);
  void growSlots();

  static constexpr size_t NumPrims = 7;
  const Type *Prims[NumPrims];
  const Type *ErrorTy;
  std::vector<Slot> Slots;
  std::vector<uint64_t> KeyPool;
  std::vector<uint64_t> KeyScratch; // reused key builder (no recursion
                                    // between clear() and intern())
  Arena TypeArena;
  std::vector<const Type *> Owned;
  /// The primitives and the error type, which outlive reset(). Arena
  /// storage, like every other type, so where they sit (and so what the
  /// simulated cache sees) does not depend on the malloc heap's state.
  Arena SingletonArena;
};

} // namespace mpc

#endif // MPC_AST_TYPES_H
