//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations of every transformation phase of the MiniScala pipeline —
/// the analogue of the paper's Table 2. Phases are grouped into fusion
/// blocks (A..F) separated by the Erasure megaphase; see StandardPlan.cpp
/// for the assembled pipeline and the ordering constraints.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_TRANSFORMS_PHASES_H
#define MPC_TRANSFORMS_PHASES_H

#include "core/Phase.h"
#include "support/FlatPtrMap.h"

#include <map>
#include <set>
#include <vector>

namespace mpc {

//===--- Block A: normalization --------------------------------------------===//

/// Override/abstract-member checks; also warns on vars in traits. Check-only
/// miniphase (all transforms are identity), mirroring Dotty's RefChecks.
class RefChecksPhase : public MiniPhase {
public:
  RefChecksPhase();
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
};

/// Canonical form: materializes empty argument lists of parameterless
/// method uses, normalizes paren-less method definitions, and folds
/// constant If conditions (paper §2.1's refchecks example).
class FirstTransformPhase : public MiniPhase {
public:
  FirstTransformPhase();
  TreePtr transformIdent(Ident *T, PhaseRunContext &Ctx) override;
  TreePtr transformSelect(Select *T, PhaseRunContext &Ctx) override;
  TreePtr transformTypeApply(TypeApply *T, PhaseRunContext &Ctx) override;
  TreePtr transformDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformIf(If *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;
};

/// Flattens multiple parameter lists (paper §2.1's uncurry).
class UncurryPhase : public MiniPhase {
public:
  UncurryPhase();
  TreePtr transformDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;
};

/// Rewrites vararg parameters and call sites (Dotty's ElimRepeated).
class ElimRepeatedPhase : public MiniPhase {
public:
  ElimRepeatedPhase();
  TreePtr transformDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;
};

/// Expands Predef.classOf calls into class constants.
class ClassOfPhase : public MiniPhase {
public:
  ClassOfPhase();
  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override;
};

/// Lifts try expressions that would execute on a non-empty stack into
/// local methods (paper §2.1/§4.1 — the flagship prepare user).
class LiftTryPhase : public MiniPhase {
public:
  LiftTryPhase();
  // Expression-context tracking via prepares/leaves.
  void prepareForApply(Apply *T, PhaseRunContext &Ctx) override;
  void leaveApply(Apply *T, PhaseRunContext &Ctx) override;
  void prepareForNew(New *T, PhaseRunContext &Ctx) override;
  void leaveNew(New *T, PhaseRunContext &Ctx) override;
  void prepareForAssign(Assign *T, PhaseRunContext &Ctx) override;
  void leaveAssign(Assign *T, PhaseRunContext &Ctx) override;
  void prepareForSelect(Select *T, PhaseRunContext &Ctx) override;
  void leaveSelect(Select *T, PhaseRunContext &Ctx) override;
  void prepareForSeqLiteral(SeqLiteral *T, PhaseRunContext &Ctx) override;
  void leaveSeqLiteral(SeqLiteral *T, PhaseRunContext &Ctx) override;
  void prepareForThrow(Throw *T, PhaseRunContext &Ctx) override;
  void leaveThrow(Throw *T, PhaseRunContext &Ctx) override;
  void prepareForDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  void leaveDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  void prepareForClosure(Closure *T, PhaseRunContext &Ctx) override;
  void leaveClosure(Closure *T, PhaseRunContext &Ctx) override;
  TreePtr transformTry(Try *T, PhaseRunContext &Ctx) override;
  void prepareForUnit(PhaseRunContext &Ctx) override;

  /// Exposed for tests: current expression-nesting depth.
  int exprDepth() const { return Frames.empty() ? 0 : Frames.back().Depth; }

private:
  struct Frame {
    Symbol *Method;
    int Depth;
  };
  std::vector<Frame> Frames;
};

/// Rewrites self-recursive tail calls into jumps (Dotty's TailRec).
class TailRecPhase : public MiniPhase {
public:
  TailRecPhase();
  TreePtr transformDefDef(DefDef *T, PhaseRunContext &Ctx) override;

  uint64_t rewrittenMethods() const { return NumRewritten; }

private:
  uint64_t NumRewritten = 0;
};

//===--- Block B: pattern matching and friends -----------------------------===//

/// Compiles Match trees into tests, casts and conditionals. Requires the
/// groups of TailRec to have finished (paper §6.3).
class PatternMatcherPhase : public MiniPhase {
public:
  PatternMatcherPhase();
  void prepareForDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  void leaveDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformMatch(Match *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

private:
  std::vector<Symbol *> MethodStack;
};

/// Routes universal equality through Runtime.equals (Dotty's
/// InterceptedMethods handles ==, getClass, ...).
class InterceptedMethodsPhase : public MiniPhase {
public:
  InterceptedMethodsPhase();
  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override;
};

/// Expands member selections on union-typed receivers into conditionals
/// (paper §6.2.2); establishes Erasure's precondition.
class SplitterPhase : public MiniPhase {
public:
  SplitterPhase();
  void prepareForDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  void leaveDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override;
  TreePtr transformSelect(Select *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

private:
  std::vector<Symbol *> MethodStack;
};

/// Expands by-name parameters and arguments into Function0 thunks.
class ElimByNamePhase : public MiniPhase {
public:
  ElimByNamePhase();
  TreePtr transformIdent(Ident *T, PhaseRunContext &Ctx) override;
  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override;
  TreePtr transformDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;
};

/// Replaces non-private immutable class-level vals with getter defs; the
/// fields are reintroduced by Memoize (Dotty's Getters).
class GettersPhase : public MiniPhase {
public:
  GettersPhase();
  TreePtr transformValDef(ValDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformSelect(Select *T, PhaseRunContext &Ctx) override;

  /// True if \p S is (or will be) converted by this phase.
  static bool isGetterCandidate(const Symbol *S);
};

/// Gives nested classes an $outer field/parameter and rewires outer-this
/// references (Dotty's ExplicitOuter).
class ExplicitOuterPhase : public MiniPhase {
public:
  ExplicitOuterPhase();
  void prepareForClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  void leaveClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformThis(This *T, PhaseRunContext &Ctx) override;
  TreePtr transformNew(New *T, PhaseRunContext &Ctx) override;
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;

  /// True if instances of \p Cls carry an outer pointer.
  static bool needsOuter(const ClassSymbol *Cls);

private:
  Symbol *outerFieldOf(ClassSymbol *Cls, PhaseRunContext &Ctx);
  std::vector<ClassSymbol *> ClassStack;
  std::map<ClassSymbol *, Symbol *> OuterFields;
};

//===--- Erasure (a megaphase, like in Dotty's Table 2) --------------------===//

/// Erases generics, unions/intersections, function and by-name types to
/// the runtime model; rewrites all node types and symbol infos, inserting
/// casts where the static type was refined. Violates fusion rules 2 and 3
/// (paper §6.2.2), hence a phase of its own.
class ErasurePhase : public Phase {
public:
  ErasurePhase();
  void runOnUnit(CompilationUnit &Unit, CompilerContext &Comp) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

  /// The type-erasure function (exposed for tests).
  static const Type *eraseType(const Type *T, CompilerContext &Comp);

private:
  /// Erased form of every type met during one runOnUnit call. Types are
  /// interned and erasure is pure within a run; the table dies with the
  /// call, so it cannot outlive a warm context's reset(), which reuses
  /// type addresses.
  using TypeMemo = FlatPtrMap<const Type *, const Type *>;

  static const Type *erase(const Type *T, CompilerContext &Comp,
                           TypeMemo &Memo);
  /// Erases the subtree rooted at \p T. Returns null when the result is
  /// \p T itself, so an unchanged subtree costs no refcount traffic.
  TreePtr eraseTree(Tree *T, CompilerContext &Comp, TypeMemo &Memo);
  /// The rules for TypeApply, New, SeqLiteral, Apply and Select, whose
  /// erased children (if any changed) sit on KidScratch from \p Base.
  /// Same null convention; the last four keep an unchanged node except
  /// under AlwaysCopy.
  TreePtr eraseNode(Tree *T, size_t Base, bool KidsChanged,
                    const Type *ErasedTy, CompilerContext &Comp,
                    TypeMemo &Memo);
  void eraseSymbolInfos(CompilerContext &Comp, TypeMemo &Memo);
  bool SymbolsErased = false;
  /// Stack-shaped scratch holding the erased children of every node on
  /// the current recursion spine (the FusedBlock::walk scheme): no
  /// per-node child list is ever allocated.
  std::vector<TreePtr> KidScratch;
};

//===--- Block C: fields, traits, closures' captures -----------------------===//

/// Copies concrete trait members into implementing classes (Dotty's Mixin
/// / AugmentScala2Traits / ResolveSuper family). Requires the groups of
/// Getters to have finished (rule 3: it reads other classes' trees).
class MixinPhase : public MiniPhase {
public:
  MixinPhase();
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
};

/// Expands lazy val accessors into initialized-flag + storage fields.
class LazyValsPhase : public MiniPhase {
public:
  LazyValsPhase();
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;
};

/// Adds backing fields to getters (Dotty's Memoize).
class MemoizePhase : public MiniPhase {
public:
  MemoizePhase();
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
};

/// Implements returns from within closures via control-flow exceptions.
///
/// Fusion-correct structure (paper §6.1 rule 2): the Return node itself is
/// rewritten into a throw when the traversal visits it — BEFORE any later
/// fused phase (FunctionValues) can move the closure body away — and the
/// enclosing method, reached later in the same postorder traversal, gains
/// the catching wrapper. Scanning for Returns from transformDefDef instead
/// would see children already converted by FunctionValues and miss them.
class NonLocalReturnsPhase : public MiniPhase {
public:
  NonLocalReturnsPhase();
  void prepareForUnit(PhaseRunContext &Ctx) override;
  void prepareForClosure(Closure *T, PhaseRunContext &Ctx) override;
  void leaveClosure(Closure *T, PhaseRunContext &Ctx) override;
  void prepareForDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  void leaveDefDef(DefDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformReturn(Return *T, PhaseRunContext &Ctx) override;
  TreePtr transformDefDef(DefDef *T, PhaseRunContext &Ctx) override;

  /// No closure body contains a Return targeting a method outside it.
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

private:
  /// True when a return to \p Target from the current position would
  /// cross a closure boundary.
  bool crossesClosure(const Symbol *Target) const;

  unsigned ClosureDepth = 0;
  /// Enclosing methods with the closure depth at their entry.
  std::vector<std::pair<Symbol *, unsigned>> MethodFrames;
  std::set<Symbol *> NeedsCatch;
};

/// Boxes vars captured by closures into Ref cells.
class CapturedVarsPhase : public MiniPhase {
public:
  CapturedVarsPhase();
  void prepareForUnit(PhaseRunContext &Ctx) override;
  TreePtr transformIdent(Ident *T, PhaseRunContext &Ctx) override;
  TreePtr transformValDef(ValDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformAssign(Assign *T, PhaseRunContext &Ctx) override;

private:
  /// Locals to box (the value is unused; FlatPtrMap serves as a set).
  FlatPtrMap<Symbol *, bool> Boxed;
};

//===--- Block D: constructors and closures --------------------------------===//

/// Moves field initializers into the primary constructor.
class ConstructorsPhase : public MiniPhase {
public:
  ConstructorsPhase();
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;
};

/// Converts Closure trees into instances of synthetic FunctionN classes
/// (Dotty-era FunctionalInterfaces/delambdafy).
class FunctionValuesPhase : public MiniPhase {
public:
  FunctionValuesPhase();
  void prepareForClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  void leaveClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  void prepareForUnit(PhaseRunContext &Ctx) override;
  TreePtr transformClosure(Closure *T, PhaseRunContext &Ctx) override;
  TreePtr transformUnit(TreePtr Root, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

private:
  std::vector<ClassSymbol *> ClassStack;
  TreeList PendingClasses;
};

/// Rewrites `this` of module classes to the module's global instance.
class ElimStaticThisPhase : public MiniPhase {
public:
  ElimStaticThisPhase();
  TreePtr transformThis(This *T, PhaseRunContext &Ctx) override;

  /// Module-value symbol for a module class (exposed for the backend).
  static Symbol *moduleValueOf(ClassSymbol *ModuleCls, CompilerContext &C);
};

//===--- Block E: lifting --------------------------------------------------===//

/// Lifts local methods to class scope, adding free variables as
/// parameters (Dotty's LambdaLift).
class LambdaLiftPhase : public MiniPhase {
public:
  LambdaLiftPhase();
  void prepareForUnit(PhaseRunContext &Ctx) override;
  void prepareForClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  void leaveClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformBlock(Block *T, PhaseRunContext &Ctx) override;
  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override;
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

private:
  struct LiftInfo {
    std::vector<Symbol *> FreeVars;
    ClassSymbol *HostClass = nullptr;
  };
  FlatPtrMap<Symbol *, LiftInfo> Lifted;
  std::map<ClassSymbol *, TreeList> Pending;
  std::vector<ClassSymbol *> ClassStack;
};

/// Lifts nested classes to the top level.
class FlattenPhase : public MiniPhase {
public:
  FlattenPhase();
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  TreePtr transformPackageDef(PackageDef *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

private:
  TreeList PendingTop;
};

/// Repairs owners and member lists invalidated by code motion (Dotty's
/// RestoreScopes).
class RestoreScopesPhase : public MiniPhase {
public:
  RestoreScopesPhase();
  TreePtr transformClassDef(ClassDef *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;
};

//===--- Block F: backend preparation --------------------------------------===//

/// Finds `def main(args: Array[String]): Unit` entry points.
class CollectEntryPointsPhase : public MiniPhase {
public:
  CollectEntryPointsPhase();
  TreePtr transformDefDef(DefDef *T, PhaseRunContext &Ctx) override;

  const std::vector<Symbol *> &entryPoints() const { return Entries; }

private:
  std::vector<Symbol *> Entries;
};

/// Cleanup: merges nested blocks and drops empty ones.
class FlattenBlocksPhase : public MiniPhase {
public:
  FlattenBlocksPhase();
  TreePtr transformBlock(Block *T, PhaseRunContext &Ctx) override;
};

/// Verifies Goto/Labeled well-formedness for the code generator.
class LabelDefsPhase : public MiniPhase {
public:
  LabelDefsPhase();
  void prepareForLabeled(Labeled *T, PhaseRunContext &Ctx) override;
  void leaveLabeled(Labeled *T, PhaseRunContext &Ctx) override;
  TreePtr transformGoto(Goto *T, PhaseRunContext &Ctx) override;
  bool checkPostCondition(const Tree *T, CompilerContext &Comp) const
      override;

private:
  std::vector<Symbol *> LabelStack;
};

} // namespace mpc

#endif // MPC_TRANSFORMS_PHASES_H
