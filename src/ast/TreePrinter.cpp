#include "ast/TreePrinter.h"

#include "support/OStream.h"

#include <charconv>
#include <cstdio>

using namespace mpc;

namespace {
/// Appends the dump to one string: no stream or temporary per node.
class Printer {
public:
  Printer(std::string &Out, const PrintOptions &Opts) : Out(Out), Opts(Opts) {}

  void print(const Tree *T, unsigned Depth) {
    Out.append(Depth * 2, ' ');
    if (!T) {
      Out += "<empty>\n";
      return;
    }
    Out += treeKindName(T->kind());
    printPayload(T);
    if (Opts.ShowTypes && T->type()) {
      Out += " : ";
      T->type()->print(Out);
    }
    Out += '\n';
    if (Opts.MaxDepth && Depth + 1 >= Opts.MaxDepth)
      return;
    for (const TreePtr &K : T->kids())
      print(K.get(), Depth + 1);
  }

private:
  template <typename IntT> void printInt(IntT N) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), N).ptr);
  }

  void printSym(const Symbol *S) {
    if (!S) {
      Out += " <nosym>";
      return;
    }
    Out += ' ';
    Out += S->name().text();
    if (Opts.ShowSymbolIds) {
      Out += '#';
      printInt(S->id());
    }
  }

  void printPayload(const Tree *T) {
    switch (T->kind()) {
    case TreeKind::Ident:
      printSym(cast<Ident>(T)->sym());
      break;
    case TreeKind::Select:
      printSym(cast<Select>(T)->sym());
      break;
    case TreeKind::This:
      printSym(cast<This>(T)->cls());
      break;
    case TreeKind::Super:
      printSym(cast<Super>(T)->fromClass());
      break;
    case TreeKind::Literal: {
      const Constant &C = cast<Literal>(T)->value();
      switch (C.kind()) {
      case Constant::Unit:
        Out += " ()";
        break;
      case Constant::Bool:
        Out += C.boolValue() ? " true" : " false";
        break;
      case Constant::Int:
        Out += ' ';
        printInt(C.intValue());
        break;
      case Constant::Double: {
        // %g, as OStream prints a double.
        char Buf[48];
        const int N = std::snprintf(Buf, sizeof(Buf), " %g", C.doubleValue());
        Out.append(Buf, static_cast<size_t>(N));
        break;
      }
      case Constant::Str:
        Out += " \"";
        Out += C.stringValue().text();
        Out += '"';
        break;
      case Constant::Null:
        Out += " null";
        break;
      case Constant::Clazz:
        Out += " classOf[";
        C.clazzValue()->print(Out);
        Out += ']';
        break;
      }
      break;
    }
    case TreeKind::TypeApply: {
      Out += " [";
      const auto &Args = cast<TypeApply>(T)->typeArgs();
      for (size_t I = 0; I < Args.size(); ++I) {
        if (I)
          Out += ", ";
        Args[I]->print(Out);
      }
      Out += ']';
      break;
    }
    case TreeKind::New:
      Out += ' ';
      cast<New>(T)->classTy()->print(Out);
      break;
    case TreeKind::Bind:
      printSym(cast<Bind>(T)->sym());
      break;
    case TreeKind::UnApply:
      printSym(cast<UnApply>(T)->caseClass());
      break;
    case TreeKind::Return:
      printSym(cast<Return>(T)->fromMethod());
      break;
    case TreeKind::Labeled:
      printSym(cast<Labeled>(T)->label());
      break;
    case TreeKind::Goto:
      printSym(cast<Goto>(T)->label());
      break;
    case TreeKind::SeqLiteral:
      Out += " elem=";
      cast<SeqLiteral>(T)->elemType()->print(Out);
      break;
    case TreeKind::ValDef: {
      const auto *VD = cast<ValDef>(T);
      printSym(VD->sym());
      printInfo(VD->sym());
      break;
    }
    case TreeKind::DefDef: {
      const auto *DD = cast<DefDef>(T);
      printSym(DD->sym());
      printInfo(DD->sym());
      break;
    }
    case TreeKind::ClassDef:
      printSym(cast<ClassDef>(T)->sym());
      break;
    case TreeKind::PackageDef:
      Out += ' ';
      Out += cast<PackageDef>(T)->pkgName()
                 ? cast<PackageDef>(T)->pkgName().text()
                 : std::string_view("<empty>");
      break;
    default:
      break;
    }
  }

  void printInfo(const Symbol *S) {
    if (S && S->info()) {
      Out += " : ";
      S->info()->print(Out);
    }
  }

  std::string &Out;
  const PrintOptions &Opts;
};
} // namespace

void mpc::appendTree(std::string &Out, const Tree *T,
                     const PrintOptions &Opts) {
  Printer P(Out, Opts);
  P.print(T, 0);
}

void mpc::printTree(OStream &OS, const Tree *T, const PrintOptions &Opts) {
  std::string S;
  appendTree(S, T, Opts);
  OS << S;
}

std::string mpc::treeToString(const Tree *T, const PrintOptions &Opts) {
  std::string S;
  appendTree(S, T, Opts);
  return S;
}
