//===----------------------------------------------------------------------===//
// AST substrate tests: tree copier reuse, refcount lifetimes, type
// interning/subtyping/lub/substitution, symbols, tree utilities, and the
// type and tree renderers.
//===----------------------------------------------------------------------===//

#include "ast/TreePrinter.h"
#include "ast/TreeUtils.h"
#include "core/CompilerContext.h"
#include "support/OStream.h"
#include "transforms/Phases.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

using namespace mpc;

namespace {

TEST(Copier, ReusesNodeWhenChildrenUnchanged) {
  CompilerContext Comp;
  TreePtr A = Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(1),
                                       Comp.types().intType());
  TreePtr Blk = Comp.trees().makeBlock(SourceLoc(), {}, A);
  uint64_t RebuiltBefore = Comp.trees().rebuildCount();
  TreeList SameKids = Blk->kids();
  TreePtr Same = Comp.trees().withNewChildren(Blk.get(), std::move(SameKids));
  EXPECT_EQ(Same.get(), Blk.get()) << "paper's reuse optimization";
  EXPECT_EQ(Comp.trees().rebuildCount(), RebuiltBefore);

  TreeList NewKids;
  NewKids.push_back(Comp.trees().makeLiteral(
      SourceLoc(), Constant::makeInt(2), Comp.types().intType()));
  TreePtr Changed =
      Comp.trees().withNewChildren(Blk.get(), std::move(NewKids));
  EXPECT_NE(Changed.get(), Blk.get());
  EXPECT_EQ(Comp.trees().rebuildCount(), RebuiltBefore + 1);
}

TEST(Copier, ForcedCopyIgnoresReuse) {
  CompilerContext Comp;
  TreePtr A = Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(1),
                                       Comp.types().intType());
  TreePtr Blk = Comp.trees().makeBlock(SourceLoc(), {}, A);
  TreeList SameKids = Blk->kids();
  TreePtr Copy =
      Comp.trees().withNewChildrenForced(Blk.get(), std::move(SameKids));
  EXPECT_NE(Copy.get(), Blk.get()) << "legacy always-copy configuration";
  EXPECT_TRUE(treeEquals(Copy.get(), Blk.get()));
}

TEST(RefCounting, NodesDieWhenUnreferenced) {
  CompilerContext Comp;
  HeapStats Before = Comp.heap().stats();
  {
    TreePtr A = Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(1),
                                         Comp.types().intType());
    TreePtr B = Comp.trees().makeBlock(SourceLoc(), {}, A);
    EXPECT_EQ(A->refCount(), 2u); // local ref + child slot
  }
  HeapStats After = Comp.heap().stats();
  EXPECT_EQ(After.FreedObjects - Before.FreedObjects, 2u);
  EXPECT_EQ(After.LiveBytes, Before.LiveBytes);
}

TEST(Types, InterningGivesPointerEquality) {
  CompilerContext Comp;
  TypeContext &T = Comp.types();
  EXPECT_EQ(T.arrayType(T.intType()), T.arrayType(T.intType()));
  EXPECT_EQ(T.methodType({T.intType()}, T.unitType()),
            T.methodType({T.intType()}, T.unitType()));
  EXPECT_NE(T.methodType({T.intType()}, T.unitType()),
            T.methodType({T.doubleType()}, T.unitType()));
  EXPECT_EQ(T.unionType(T.intType(), T.intType()), T.intType());
}

TEST(Types, SubtypingRules) {
  CompilerContext Comp;
  TypeContext &T = Comp.types();
  SymbolTable &S = Comp.syms();
  ClassSymbol *Animal = S.makeClass(Comp.names().intern("Animal"),
                                    S.rootPackage(), 0);
  Animal->setParents({S.objectType()});
  ClassSymbol *Dog =
      S.makeClass(Comp.names().intern("Dog"), S.rootPackage(), 0);
  Dog->setParents({T.classType(Animal)});

  EXPECT_TRUE(T.isSubtype(T.classType(Dog), T.classType(Animal)));
  EXPECT_FALSE(T.isSubtype(T.classType(Animal), T.classType(Dog)));
  EXPECT_TRUE(T.isSubtype(T.nothingType(), T.classType(Dog)));
  EXPECT_TRUE(T.isSubtype(T.classType(Dog), T.anyType()));
  EXPECT_TRUE(T.isSubtype(T.nullType(), T.classType(Dog)));
  // Unions.
  const Type *U = T.unionType(T.classType(Dog), T.classType(Animal));
  EXPECT_TRUE(T.isSubtype(U, T.classType(Animal)));
  EXPECT_TRUE(T.isSubtype(T.classType(Dog), U));
  // Intersections.
  const Type *I =
      T.intersectionType(T.classType(Dog), T.classType(Animal));
  EXPECT_TRUE(T.isSubtype(I, T.classType(Dog)));
  EXPECT_TRUE(T.isSubtype(I, T.classType(Animal)));
}

TEST(Types, SubstitutionAndErasureInteraction) {
  CompilerContext Comp;
  TypeContext &T = Comp.types();
  SymbolTable &S = Comp.syms();
  Symbol *TP = S.makeTerm(Comp.names().intern("T"), S.rootPackage(),
                          SymFlag::TypeParam);
  const Type *Ref = T.typeParamRef(TP);
  const Type *MT = T.methodType({Ref}, T.arrayType(Ref));
  const Type *Inst = T.substitute(MT, {TP}, {T.intType()});
  EXPECT_EQ(Inst, T.methodType({T.intType()}, T.arrayType(T.intType())));

  const Type *Erased = ErasurePhase::eraseType(MT, Comp);
  const auto *EM = cast<MethodType>(Erased);
  EXPECT_EQ(EM->params()[0], S.objectType());
}

TEST(Types, ErasureOfUnionsAndFunctions) {
  CompilerContext Comp;
  TypeContext &T = Comp.types();
  SymbolTable &S = Comp.syms();
  ClassSymbol *Base =
      S.makeClass(Comp.names().intern("Base"), S.rootPackage(), 0);
  Base->setParents({S.objectType()});
  ClassSymbol *A = S.makeClass(Comp.names().intern("A"), S.rootPackage(), 0);
  A->setParents({T.classType(Base)});
  ClassSymbol *B = S.makeClass(Comp.names().intern("B"), S.rootPackage(), 0);
  B->setParents({T.classType(Base)});

  const Type *U = T.unionType(T.classType(A), T.classType(B));
  EXPECT_EQ(ErasurePhase::eraseType(U, Comp), T.classType(Base))
      << "erased union joins at the nearest common ancestor";

  const Type *F = T.functionType({T.intType()}, T.intType());
  EXPECT_EQ(ErasurePhase::eraseType(F, Comp),
            T.classType(S.functionClass(1)));
}

TEST(Symbols, MemberLookupWalksAncestors) {
  CompilerContext Comp;
  SymbolTable &S = Comp.syms();
  ClassSymbol *Base =
      S.makeClass(Comp.names().intern("Base2"), S.rootPackage(), 0);
  Base->setParents({S.objectType()});
  Symbol *M = S.makeTerm(Comp.names().intern("m"), Base, SymFlag::Method,
                         Comp.types().methodType({}, Comp.types().intType()));
  Base->enterMember(M);
  ClassSymbol *Derived =
      S.makeClass(Comp.names().intern("Derived2"), S.rootPackage(), 0);
  Derived->setParents({Comp.types().classType(Base)});
  EXPECT_EQ(Derived->findMember(Comp.names().intern("m")), M);
  EXPECT_EQ(Derived->findDeclaredMember(Comp.names().intern("m")), nullptr);
  EXPECT_TRUE(Derived->derivesFrom(Base));
  EXPECT_TRUE(Derived->derivesFrom(S.objectClass()));
}

TEST(TreeUtils, CountAndFind) {
  CompilerContext Comp;
  TreePtr L1 = Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(1),
                                        Comp.types().intType());
  TreePtr L2 = Comp.trees().makeLiteral(SourceLoc(), Constant::makeInt(2),
                                        Comp.types().intType());
  TreeList Stats;
  Stats.push_back(std::move(L1));
  TreePtr B = Comp.trees().makeBlock(SourceLoc(), std::move(Stats),
                                     std::move(L2));
  EXPECT_EQ(countNodes(B.get()), 3u);
  EXPECT_EQ(countKind(B.get(), TreeKind::Literal), 2u);
  EXPECT_EQ(treeDepth(B.get()), 2u);
  EXPECT_NE(findFirst(B.get(), TreeKind::Literal), nullptr);
  EXPECT_EQ(findFirst(B.get(), TreeKind::Match), nullptr);
}

TEST(Rendering, TypeShowCoversEveryKind) {
  // Pinned renderings, one or more per TypeKind: show() is what tree
  // dumps, diagnostics and the VM's class values print.
  CompilerContext Comp;
  TypeContext &T = Comp.types();
  SymbolTable &S = Comp.syms();
  ClassSymbol *Box =
      S.makeClass(Comp.names().intern("Box"), S.rootPackage(), 0);
  ClassSymbol *Cup =
      S.makeClass(Comp.names().intern("Cup"), S.rootPackage(), 0);
  Symbol *PA = S.makeTerm(Comp.names().intern("A"), S.rootPackage(),
                          SymFlag::TypeParam);
  Symbol *PB = S.makeTerm(Comp.names().intern("B"), S.rootPackage(),
                          SymFlag::TypeParam);
  const Type *A = T.typeParamRef(PA);
  const Type *B = T.typeParamRef(PB);
  const Type *BoxT = T.classType(Box);
  const Type *CupT = T.classType(Cup);

  const std::pair<const Type *, const char *> Cases[] = {
      {T.anyType(), "Any"},
      {T.nothingType(), "Nothing"},
      {T.nullType(), "Null"},
      {T.unitType(), "Unit"},
      {T.intType(), "Int"},
      {T.booleanType(), "Boolean"},
      {T.doubleType(), "Double"},
      {BoxT, "Box"},
      {T.classType(Box, {T.intType(), A}), "Box[Int, A]"},
      {T.arrayType(T.arrayType(T.doubleType())), "Array[Array[Double]]"},
      {T.methodType({}, T.unitType()), "()Unit"},
      {T.methodType({T.intType(), A}, T.methodType({T.booleanType()}, A)),
       "(Int, A)(Boolean)A"},
      {T.polyType({PA, PB}, T.methodType({A}, B)), "[A, B](A)B"},
      {T.functionType({}, T.intType()), "() => Int"},
      {T.functionType({T.intType(), T.functionType({A}, A)},
                      T.booleanType()),
       "(Int, (A) => A) => Boolean"},
      {T.exprType(T.classType(Box, {B})), "=> Box[B]"},
      {T.repeatedType(BoxT), "Box*"},
      {T.unionType(BoxT, CupT), "Box | Cup"},
      // `&` binds tighter than `|`, and both associate to the left.
      {T.intersectionType(BoxT, T.unionType(CupT, T.nullType())),
       "Box & (Cup | Null)"},
      {T.unionType(T.intersectionType(BoxT, CupT), T.nullType()),
       "Box & Cup | Null"},
      {T.unionType(BoxT, T.unionType(CupT, T.nullType())),
       "Box | (Cup | Null)"},
      {T.unionType(T.unionType(BoxT, CupT), T.nullType()),
       "Box | Cup | Null"},
      {T.unionType(T.functionType({BoxT}, CupT), T.nullType()),
       "((Box) => Cup) | Null"},
      {T.functionType({BoxT}, T.unionType(CupT, T.nullType())),
       "(Box) => Cup | Null"},
      {T.repeatedType(T.unionType(BoxT, CupT)), "(Box | Cup)*"},
      {A, "A"},
      {T.errorType(), "<error>"},
      {T.arrayType(T.errorType()), "Array[<error>]"},
  };
  for (const auto &[Ty, Want] : Cases) {
    EXPECT_EQ(Ty->show(), Want);
    std::string Appended = "prefix:";
    Ty->print(Appended);
    EXPECT_EQ(Appended, std::string("prefix:") + Want);
  }
}

// Every type built from two or three leaves with union, intersection and
// one-parameter function types, up to depth 3, renders to its own string:
// show() never conflates two distinct (interned) types.
TEST(Rendering, TypeShowIsUnambiguous) {
  CompilerContext Comp;
  TypeContext &T = Comp.types();
  SymbolTable &S = Comp.syms();
  const Type *Box = T.classType(
      S.makeClass(Comp.names().intern("Box"), S.rootPackage(), 0));
  for (std::vector<const Type *> Leaves :
       {std::vector<const Type *>{Box, T.intType()},
        std::vector<const Type *>{Box, T.intType(), T.nullType()}}) {
    std::vector<const Type *> All = Leaves;
    for (unsigned Depth = 1; Depth < 3; ++Depth) {
      std::vector<const Type *> Next = All;
      for (const Type *L : All)
        for (const Type *R : All) {
          Next.push_back(T.unionType(L, R));
          Next.push_back(T.intersectionType(L, R));
          Next.push_back(T.functionType({L}, R));
        }
      std::sort(Next.begin(), Next.end());
      Next.erase(std::unique(Next.begin(), Next.end()), Next.end());
      All = std::move(Next);
    }
    std::map<std::string, const Type *> Seen;
    for (const Type *Ty : All) {
      auto [It, Fresh] = Seen.emplace(Ty->show(), Ty);
      EXPECT_TRUE(Fresh || It->second == Ty)
          << "two types render as " << It->first;
    }
    EXPECT_EQ(Seen.size(), All.size());
  }
}

/// A small typed tree with every payload the dumper renders: symbols,
/// each literal kind, type arguments, `new`, and ValDef/DefDef infos.
TreePtr renderingTree(CompilerContext &Comp) {
  TypeContext &T = Comp.types();
  SymbolTable &S = Comp.syms();
  TreeContext &F = Comp.trees();
  ClassSymbol *Box =
      S.makeClass(Comp.names().intern("Box"), S.rootPackage(), 0);
  const Type *BoxT = T.classType(Box, {T.intType()});
  Symbol *X = S.makeTerm(Comp.names().intern("x"), Box, 0, T.intType());
  Symbol *Fn = S.makeTerm(Comp.names().intern("f"), Box, SymFlag::Method,
                          T.methodType({T.doubleType()}, T.booleanType()));
  auto Lit = [&](Constant C, const Type *Ty) {
    return TreePtr(F.makeLiteral(SourceLoc(), C, Ty));
  };
  TreeList Stats;
  Stats.push_back(Lit(Constant::makeInt(-42), T.intType()));
  Stats.push_back(Lit(Constant::makeDouble(0.1), T.doubleType()));
  Stats.push_back(Lit(Constant::makeDouble(1e20), T.doubleType()));
  Stats.push_back(Lit(Constant::makeDouble(-2.5), T.doubleType()));
  Stats.push_back(
      Lit(Constant::makeString(Comp.names().intern("hi")), S.stringType()));
  Stats.push_back(Lit(Constant::makeNull(), T.nullType()));
  Stats.push_back(Lit(Constant::makeUnit(), T.unitType()));
  Stats.push_back(Lit(Constant::makeClazz(BoxT), S.objectType()));
  Stats.push_back(F.makeNew(SourceLoc(), BoxT, TreeList()));
  Stats.push_back(F.makeTypeApply(
      SourceLoc(), F.makeIdent(SourceLoc(), X, T.intType()),
      {T.intType(), T.arrayType(BoxT)}, T.intType()));
  Stats.push_back(F.makeSelect(SourceLoc(),
                               F.makeThis(SourceLoc(), Box, BoxT), X,
                               T.intType()));
  TreePtr Body = F.makeBlock(SourceLoc(), std::move(Stats),
                             Lit(Constant::makeBool(true), T.booleanType()));
  TreeList Members;
  Members.push_back(F.makeValDef(
      SourceLoc(), X, Lit(Constant::makeInt(7), T.intType())));
  Members.push_back(F.makeDefDef(SourceLoc(), Fn, {0}, TreeList(),
                                 std::move(Body)));
  TreeList Top;
  Top.push_back(F.makeClassDef(SourceLoc(), Box, std::move(Members)));
  return F.makePackageDef(SourceLoc(), Comp.names().intern("pkg"),
                          std::move(Top));
}

TEST(Rendering, TreeDumpIsPinned) {
  CompilerContext Comp;
  TreePtr Root = renderingTree(Comp);
  // Symbol ids depend on how many builtins precede the test's symbols, so
  // they are spliced in; everything else is the dump byte for byte.
  const auto *Cls = cast<ClassDef>(Root->kids()[0].get());
  const auto *X = cast<ValDef>(Cls->kids()[0].get());
  const auto *Fn = cast<DefDef>(Cls->kids()[1].get());
  const std::string BoxId = "#" + std::to_string(Cls->sym()->id());
  const std::string XId = "#" + std::to_string(X->sym()->id());
  const std::string FnId = "#" + std::to_string(Fn->sym()->id());
  PrintOptions All;
  All.ShowTypes = true;
  All.ShowSymbolIds = true;
  EXPECT_EQ(treeToString(Root.get(), All),
            "PackageDef pkg\n"
            "  ClassDef Box" + BoxId + "\n"
            "    ValDef x" + XId + " : Int\n"
            "      Literal 7 : Int\n"
            "    DefDef f" + FnId + " : (Double)Boolean\n"
            "      Block : Boolean\n"
            "        Literal -42 : Int\n"
            "        Literal 0.1 : Double\n"
            "        Literal 1e+20 : Double\n"
            "        Literal -2.5 : Double\n"
            "        Literal \"hi\" : String\n"
            "        Literal null : Null\n"
            "        Literal () : Unit\n"
            "        Literal classOf[Box[Int]] : Object\n"
            "        New Box[Int] : Box[Int]\n"
            "        TypeApply [Int, Array[Box[Int]]] : Int\n"
            "          Ident x" + XId + " : Int\n"
            "        Select x" + XId + " : Int\n"
            "          This Box" + BoxId + " : Box[Int]\n"
            "        Literal true : Boolean\n");
  PrintOptions Shallow;
  Shallow.MaxDepth = 3;
  EXPECT_EQ(treeToString(Root.get(), Shallow),
            "PackageDef pkg\n"
            "  ClassDef Box\n"
            "    ValDef x : Int\n"
            "    DefDef f : (Double)Boolean\n");
  EXPECT_EQ(treeToString(nullptr), "<empty>\n");
}

TEST(Rendering, TreeDumpEntryPointsAgree) {
  CompilerContext Comp;
  TreePtr Root = renderingTree(Comp);
  for (bool Types : {false, true})
    for (bool Ids : {false, true})
      for (unsigned Depth : {0u, 1u, 3u}) {
        PrintOptions PO;
        PO.ShowTypes = Types;
        PO.ShowSymbolIds = Ids;
        PO.MaxDepth = Depth;
        const std::string Want = treeToString(Root.get(), PO);
        StringOStream OS;
        OS << "head|";
        printTree(OS, Root.get(), PO);
        EXPECT_EQ(OS.str(), "head|" + Want);
        std::string Appended = "head|";
        appendTree(Appended, Root.get(), PO);
        EXPECT_EQ(Appended, "head|" + Want);
      }
}

TEST(KindSetTest, Basics) {
  KindSet S{TreeKind::Apply, TreeKind::Literal};
  EXPECT_TRUE(S.contains(TreeKind::Apply));
  EXPECT_FALSE(S.contains(TreeKind::Block));
  EXPECT_TRUE(KindSet::all().contains(TreeKind::PackageDef));
  EXPECT_TRUE(KindSet().empty());
}

} // namespace
