#include "workload/ProgramGenerator.h"

#include "support/Rng.h"

#include <sstream>

using namespace mpc;

WorkloadProfile mpc::stdlibProfile(double Scale) {
  WorkloadProfile P;
  P.Name = "stdlib";
  P.Seed = 0x5ca1ab1eULL;
  P.TargetLoc = static_cast<unsigned>(34000 * Scale);
  P.UnitsHint = static_cast<unsigned>(80 * Scale) + 4;
  P.MatchPercent = 70; // collection-like code is match-heavy
  P.LazyPercent = 35;
  P.ClosurePercent = 55;
  P.TryPercent = 15;
  P.VarargPercent = 25;
  P.TraitPercent = 50;
  return P;
}

WorkloadProfile mpc::dottyProfile(double Scale) {
  WorkloadProfile P;
  P.Name = "dotty";
  P.Seed = 0xd017eeULL;
  P.TargetLoc = static_cast<unsigned>(50000 * Scale);
  P.UnitsHint = static_cast<unsigned>(120 * Scale) + 4;
  P.MatchPercent = 80; // compilers pattern-match all the time
  P.LazyPercent = 25;
  P.ClosurePercent = 45;
  P.TryPercent = 20;
  P.VarargPercent = 15;
  P.TraitPercent = 45;
  return P;
}

namespace {

/// Emits one synthetic compilation unit. The generated code is closed
/// (each unit references only its own definitions plus units' shared
/// shapes) and well-typed by construction.
class UnitGenerator {
public:
  UnitGenerator(Rng &R, const WorkloadProfile &P, unsigned UnitIdx)
      : R(R), P(P), U(UnitIdx) {}

  std::string generate(unsigned TargetLines) {
    // A family of case classes for matching.
    line("trait Node" + id() + " { def weight: Int = 1 }");
    line("case class Leaf" + id() + "(value: Int) extends Node" + id());
    line("case class Pair" + id() + "(left: Int, right: Int) extends Node" +
         id());
    line("case class Tag" + id() + "(name: String, value: Int) extends "
         "Node" + id());
    blank();

    if (R.chance(P.TraitPercent)) {
      HasMixin = true;
      line("trait Mixin" + id() + " {");
      line("  def base: Int = " + num(1, 50));
      if (R.chance(P.LazyPercent))
        line("  lazy val cached: Int = base * " + num(2, 9));
      else
        line("  val cached: Int = " + num(10, 99));
      line("  def scaled(k: Int): Int = cached * k");
      line("}");
      blank();
    }

    unsigned Cls = 0;
    while (Lines + 20 < TargetLines) {
      genClass(Cls++);
      blank();
    }

    // The unit's driver object ties everything together so nothing is
    // dead code.
    line("object Driver" + id() + " {");
    line("  def run(): Int = {");
    line("    var total = 0");
    for (unsigned C = 0; C < Cls; ++C)
      line("    total = total + new Worker" + id() + "_" +
           std::to_string(C) + "(" + num(1, 9) + ").work(" + num(1, 20) +
           ")");
    line("    total");
    line("  }");
    line("}");
    return Out.str();
  }

  unsigned lineCount() const { return Lines; }

private:
  std::string id() const { return std::to_string(U); }
  std::string num(int Lo, int Hi) {
    return std::to_string(R.range(Lo, Hi));
  }

  void line(const std::string &S) {
    Out << S << '\n';
    ++Lines;
  }
  void blank() {
    Out << '\n';
    ++Lines;
  }

  void genClass(unsigned C) {
    std::string Cls = "Worker" + id() + "_" + std::to_string(C);
    bool WithTrait = HasMixin && R.chance(P.TraitPercent);
    line("class " + Cls + "(seed: Int)" +
         (WithTrait ? " extends Mixin" + id() : "") + " {");
    line("  val bias: Int = seed * " + num(2, 5));
    if (R.chance(P.LazyPercent))
      line("  lazy val table: Int = { var t = 0; var i = 0; while (i < "
           "seed) { t = t + i; i = i + 1 }; t }");
    unsigned Methods = static_cast<unsigned>(R.range(2, 5));
    for (unsigned M = 0; M < Methods; ++M)
      genMethod(M);
    // The entry method chains the others.
    line("  def work(n: Int): Int = {");
    line("    var acc = bias");
    for (unsigned M = 0; M < Methods; ++M)
      line("    acc = acc + m" + std::to_string(M) + "(acc % " +
           num(5, 30) + ")");
    line("    acc");
    line("  }");
    line("}");
  }

  void genMethod(unsigned M) {
    std::string Name = "m" + std::to_string(M);
    unsigned Style = static_cast<unsigned>(R.below(100));
    if (Style < P.MatchPercent) {
      // Pattern-matching style.
      line("  def " + Name + "(x: Int): Int = {");
      line("    val node: Node" + id() + " = if (x % 3 == 0) Leaf" + id() +
           "(x) else if (x % 3 == 1) Pair" + id() + "(x, x + 1) else Tag" +
           id() + "(\"t\", x)");
      line("    node match {");
      line("      case Leaf" + id() + "(v) => v + " + num(1, 9));
      line("      case Pair" + id() + "(a, b) if a < b => a * b + " +
           num(1, 9));
      line("      case Pair" + id() + "(a, b) => a - b");
      line("      case Tag" + id() + "(n, v) => v + n.length");
      line("      case _ => 0");
      line("    }");
      line("  }");
      return;
    }
    Style -= P.MatchPercent;
    if (R.chance(P.ClosurePercent)) {
      line("  def " + Name + "(x: Int): Int = {");
      line("    val f = (k: Int) => k * " + num(2, 7) + " + x");
      line("    var acc = 0");
      line("    var i = 0");
      line("    while (i < " + num(3, 12) + ") { acc = acc + f(i); i = i "
           "+ 1 }");
      line("    acc");
      line("  }");
      return;
    }
    if (R.chance(P.TryPercent)) {
      line("  def " + Name + "(x: Int): Int = {");
      line("    val safe = 1 + (try { if (x == 0) throw new "
           "Throwable(\"zero\") else 100 / x } catch { case t: Throwable "
           "=> 0 })");
      line("    safe + x");
      line("  }");
      return;
    }
    if (R.chance(P.VarargPercent)) {
      line("  def sum" + Name + "(xs: Int*): Int = {");
      line("    var t = 0; var i = 0");
      line("    while (i < xs.length) { t = t + xs(i); i = i + 1 }");
      line("    t");
      line("  }");
      line("  def " + Name + "(x: Int): Int = sum" + Name + "(x, x + 1, "
           "x + 2) + " + num(1, 9));
      return;
    }
    // Tail-recursive accumulator.
    line("  def " + Name + "(x: Int): Int = {");
    line("    def loop(n: Int, acc: Int): Int =");
    line("      if (n <= 0) acc else loop(n - 1, acc + n)");
    line("    loop(x % " + num(5, 40) + ", " + num(0, 5) + ")");
    line("  }");
  }

  Rng &R;
  const WorkloadProfile &P;
  unsigned U;
  std::ostringstream Out;
  unsigned Lines = 0;
  bool HasMixin = false;
};

} // namespace

std::vector<SourceInput>
mpc::generateWorkload(const WorkloadProfile &Profile) {
  Rng Root(Profile.Seed);
  std::vector<SourceInput> Sources;
  unsigned Units = Profile.UnitsHint == 0 ? 1 : Profile.UnitsHint;
  unsigned PerUnit = Profile.TargetLoc / Units;
  for (unsigned U = 0; U < Units; ++U) {
    Rng UnitRng = Root.fork();
    UnitGenerator G(UnitRng, Profile, U);
    SourceInput Src;
    Src.FileName = Profile.Name + "_" + std::to_string(U) + ".scala";
    Src.Text = G.generate(PerUnit);
    Sources.push_back(std::move(Src));
  }
  return Sources;
}

uint64_t mpc::countLines(const std::vector<SourceInput> &Sources) {
  uint64_t N = 0;
  for (const SourceInput &S : Sources)
    for (char C : S.Text)
      if (C == '\n')
        ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Stress families
//===----------------------------------------------------------------------===//

const char *mpc::familyName(Family F) {
  switch (F) {
  case Family::Mixed:
    return "mixed";
  case Family::DeepInheritance:
    return "deep-inheritance";
  case Family::ClosureHeavy:
    return "closure-heavy";
  case Family::MegaMethods:
    return "mega-methods";
  case Family::ManyTinyUnits:
    return "many-tiny-units";
  case Family::Truncated:
    return "truncated";
  case Family::TokenMutation:
    return "token-mutation";
  case Family::UnbalancedDelims:
    return "unbalanced-delims";
  case Family::TypeErrorSeeded:
    return "type-error-seeded";
  }
  return "unknown";
}

bool mpc::familyIsValid(Family F) {
  switch (F) {
  case Family::Mixed:
  case Family::DeepInheritance:
  case Family::ClosureHeavy:
  case Family::MegaMethods:
  case Family::ManyTinyUnits:
    return true;
  default:
    return false;
  }
}

const std::vector<Family> &mpc::allFamilies() {
  static const std::vector<Family> All = {
      Family::Mixed,          Family::DeepInheritance,
      Family::ClosureHeavy,   Family::MegaMethods,
      Family::ManyTinyUnits,  Family::Truncated,
      Family::TokenMutation,  Family::UnbalancedDelims,
      Family::TypeErrorSeeded};
  return All;
}

namespace {

std::string numStr(Rng &R, int Lo, int Hi) {
  return std::to_string(R.range(Lo, Hi));
}

/// The profile-driven generator with an entry point bolted on: one Main
/// unit calls every per-unit Driver object so nothing is dead code.
std::vector<SourceInput> genMixed(uint64_t Seed, double Scale) {
  WorkloadProfile P;
  P.Name = "mixed";
  P.Seed = Seed * 2 + 1; // never zero
  P.TargetLoc = static_cast<unsigned>(240 * Scale) + 60;
  P.UnitsHint = 3;
  Rng R(Seed ^ 0x3a9d'2c41'77e1'0b5fULL);
  P.MatchPercent = static_cast<unsigned>(R.range(40, 85));
  P.LazyPercent = static_cast<unsigned>(R.range(10, 50));
  P.ClosurePercent = static_cast<unsigned>(R.range(20, 60));
  P.TryPercent = static_cast<unsigned>(R.range(5, 35));
  P.VarargPercent = static_cast<unsigned>(R.range(5, 35));
  P.TraitPercent = static_cast<unsigned>(R.range(20, 60));
  std::vector<SourceInput> Sources = generateWorkload(P);

  std::ostringstream Main;
  Main << "object Main {\n";
  Main << "  def main(args: Array[String]): Unit = {\n";
  for (unsigned U = 0; U < P.UnitsHint; ++U)
    Main << "    println(Driver" << U << ".run())\n";
  Main << "  }\n}\n";
  Sources.push_back({"mixed_main.scala", Main.str()});
  return Sources;
}

std::vector<SourceInput> genDeepInheritance(uint64_t Seed, double Scale) {
  Rng R(Seed ^ 0x11c9'84f2'0d3b'66a1ULL);
  unsigned Depth =
      static_cast<unsigned>(R.range(6, 10 + static_cast<int64_t>(20 * Scale)));
  std::ostringstream S;
  S << "class L0(s: Int) {\n";
  S << "  def rank(): Int = 0\n";
  S << "  def weigh(x: Int): Int = x + s\n";
  S << "}\n";
  for (unsigned D = 1; D < Depth; ++D) {
    S << "class L" << D << "(s: Int) extends L" << (D - 1) << "(s) {\n";
    S << "  override def rank(): Int = super.rank() + 1\n";
    S << "  override def weigh(x: Int): Int = super.weigh(x) + "
      << numStr(R, 1, 9) << "\n";
    if (R.chance(30))
      S << "  def own" << D << "(y: Int): Int = y * " << numStr(R, 2, 5)
        << "\n";
    S << "}\n";
  }
  S << "object Main {\n";
  S << "  def main(args: Array[String]): Unit = {\n";
  S << "    val top = new L" << (Depth - 1) << "(" << numStr(R, 1, 7)
    << ")\n";
  S << "    println(top.rank())\n";
  S << "    println(top.weigh(" << numStr(R, 1, 30) << "))\n";
  // Virtual dispatch through a base-typed slot.
  S << "    val mid: L0 = new L" << (Depth / 2) << "(" << numStr(R, 1, 7)
    << ")\n";
  S << "    println(mid.weigh(" << numStr(R, 1, 30) << "))\n";
  S << "    println(mid.rank())\n";
  S << "  }\n}\n";
  return {{"deep_inheritance.scala", S.str()}};
}

std::vector<SourceInput> genClosureHeavy(uint64_t Seed, double Scale) {
  Rng R(Seed ^ 0x7be2'5510'9ac3'44d9ULL);
  unsigned Rounds =
      static_cast<unsigned>(R.range(4, 6 + static_cast<int64_t>(14 * Scale)));
  std::ostringstream S;
  S << "object Main {\n";
  S << "  def fold(f: (Int) => Int, n: Int): Int = {\n";
  S << "    var a = 0\n";
  S << "    var i = 0\n";
  S << "    while (i < n) { a = a + f(i); i = i + 1 }\n";
  S << "    a\n";
  S << "  }\n";
  S << "  def twice(f: (Int) => Int, x: Int): Int = f(f(x))\n";
  S << "  def main(args: Array[String]): Unit = {\n";
  S << "    var acc = " << numStr(R, 1, 9) << "\n";
  for (unsigned I = 0; I < Rounds; ++I) {
    // Lambdas capture immutable snapshots only: closure conversion copies
    // captures into fields, so a captured `var` would change meaning.
    S << "    val snap" << I << " = acc\n";
    switch (R.below(3)) {
    case 0:
      S << "    val f" << I << " = (k: Int) => k * " << numStr(R, 2, 7)
        << " + snap" << I << "\n";
      S << "    acc = acc + fold(f" << I << ", " << numStr(R, 3, 12)
        << ")\n";
      break;
    case 1:
      S << "    val g" << I << " = (k: Int) => k + " << numStr(R, 1, 20)
        << "\n";
      S << "    acc = acc + twice(g" << I << ", acc % " << numStr(R, 7, 40)
        << ")\n";
      break;
    default:
      S << "    val c" << I << " = " << numStr(R, 2, 15) << "\n";
      S << "    acc = acc + fold((k: Int) => k * c" << I << " - snap" << I
        << " % " << numStr(R, 3, 9) << ", " << numStr(R, 2, 8) << ")\n";
      break;
    }
  }
  S << "    println(acc)\n";
  S << "  }\n}\n";
  return {{"closure_heavy.scala", S.str()}};
}

std::vector<SourceInput> genMegaMethods(uint64_t Seed, double Scale) {
  Rng R(Seed ^ 0x5d30'aa17'31fe'c88bULL);
  unsigned Stmts =
      static_cast<unsigned>(R.range(40, 60 + static_cast<int64_t>(240 * Scale)));
  std::ostringstream S;
  S << "class Mega(seed: Int) {\n";
  S << "  def grind(x: Int): Int = {\n";
  S << "    var acc = x + seed\n";
  for (unsigned I = 0; I < Stmts; ++I) {
    switch (R.below(4)) {
    case 0:
      S << "    acc = acc * " << numStr(R, 2, 5) << " + " << numStr(R, 1, 99)
        << "\n";
      break;
    case 1:
      S << "    acc = acc % " << numStr(R, 50, 5000) << " + acc / "
        << numStr(R, 2, 9) << "\n";
      break;
    case 2:
      S << "    if (acc % " << numStr(R, 2, 7) << " == 0) acc = acc + "
        << numStr(R, 1, 50) << " else acc = acc - " << numStr(R, 1, 50)
        << "\n";
      break;
    default:
      S << "    acc = (acc % " << numStr(R, 3, 11) << ") match { case 0 => "
           "acc + "
        << numStr(R, 1, 9) << " case 1 => acc * 2 case _ => acc - 1 }\n";
      break;
    }
  }
  S << "    acc\n";
  S << "  }\n";
  S << "}\n";
  S << "object Main {\n";
  S << "  def main(args: Array[String]): Unit = {\n";
  S << "    val m = new Mega(" << numStr(R, 1, 9) << ")\n";
  S << "    println(m.grind(" << numStr(R, 1, 100) << "))\n";
  S << "    println(m.grind(" << numStr(R, 100, 10000) << "))\n";
  S << "  }\n}\n";
  return {{"mega_methods.scala", S.str()}};
}

std::vector<SourceInput> genManyTinyUnits(uint64_t Seed, double Scale) {
  Rng R(Seed ^ 0xf00d'9e12'4cc8'71a3ULL);
  unsigned Units =
      static_cast<unsigned>(R.range(8, 12 + static_cast<int64_t>(28 * Scale)));
  std::vector<SourceInput> Sources;
  for (unsigned U = 0; U < Units; ++U) {
    std::ostringstream S;
    S << "class Tiny" << U << "(s: Int) {\n";
    S << "  val off: Int = " << numStr(R, 1, 40) << "\n";
    S << "  def f(x: Int): Int = x * " << numStr(R, 2, 9) << " + s + off\n";
    S << "}\n";
    Sources.push_back({"tiny_" + std::to_string(U) + ".scala", S.str()});
  }
  std::ostringstream Main;
  Main << "object Main {\n";
  Main << "  def main(args: Array[String]): Unit = {\n";
  Main << "    var total = 0\n";
  for (unsigned U = 0; U < Units; ++U)
    Main << "    total = total + new Tiny" << U << "("
         << numStr(R, 1, 9) << ").f(" << numStr(R, 1, 30) << ")\n";
  Main << "    println(total)\n";
  Main << "  }\n}\n";
  Sources.push_back({"tiny_main.scala", Main.str()});
  return Sources;
}

/// Invalid families corrupt the deterministic Mixed base for the same
/// seed, so every mutation applies to realistic, feature-rich input.

std::vector<SourceInput> genTruncated(uint64_t Seed, double Scale) {
  std::vector<SourceInput> Sources = genMixed(Seed, Scale);
  Rng R(Seed ^ 0x8125'cd09'66b7'3e4fULL);
  size_t Victim = R.below(Sources.size());
  std::string &Text = Sources[Victim].Text;
  if (Text.size() > 8) {
    size_t Cut = static_cast<size_t>(
        R.range(static_cast<int64_t>(Text.size() / 8),
                static_cast<int64_t>(Text.size() - 1)));
    Text.resize(Cut);
  }
  return Sources;
}

std::vector<SourceInput> genTokenMutation(uint64_t Seed, double Scale) {
  std::vector<SourceInput> Sources = genMixed(Seed, Scale);
  Rng R(Seed ^ 0x93b1'07dd'5a26'f081ULL);
  static const char *Vocab[] = {"def",   "val",  "class", "match", "=>",
                                "=",     "{",    "}",     "(",     ")",
                                "if",    "else", "42",    "while", "case",
                                "extends", "x",  ":",     "Int",   "new"};
  std::string &Text = Sources[R.below(Sources.size())].Text;
  // Split into whitespace-delimited words, mutate a few, and rejoin.
  std::vector<std::string> Words;
  std::string Cur;
  for (char C : Text) {
    if (C == ' ' || C == '\n') {
      if (!Cur.empty())
        Words.push_back(Cur);
      Cur.clear();
      Words.push_back(std::string(1, C)); // keep separators as words
    } else {
      Cur += C;
    }
  }
  if (!Cur.empty())
    Words.push_back(Cur);
  unsigned Mutations = static_cast<unsigned>(R.range(3, 10));
  for (unsigned M = 0; M < Mutations && !Words.empty(); ++M) {
    size_t I = R.below(Words.size());
    switch (R.below(3)) {
    case 0: // replace
      Words[I] = R.pick(Vocab);
      break;
    case 1: // delete
      Words[I].clear();
      break;
    default: // duplicate
      Words[I] = Words[I] + " " + Words[I];
      break;
    }
  }
  std::string Mutated;
  for (const std::string &W : Words)
    Mutated += W;
  Text = std::move(Mutated);
  return Sources;
}

std::vector<SourceInput> genUnbalancedDelims(uint64_t Seed, double Scale) {
  std::vector<SourceInput> Sources = genMixed(Seed, Scale);
  Rng R(Seed ^ 0x2c68'f3ba'e901'557dULL);
  static const char Delims[] = {'{', '}', '(', ')', '[', ']'};
  std::string &Text = Sources[R.below(Sources.size())].Text;
  unsigned Edits = static_cast<unsigned>(R.range(2, 6));
  for (unsigned E = 0; E < Edits && !Text.empty(); ++E) {
    size_t I = R.below(Text.size());
    bool IsDelim = Text[I] == '{' || Text[I] == '}' || Text[I] == '(' ||
                   Text[I] == ')' || Text[I] == '[' || Text[I] == ']';
    if (IsDelim)
      Text.erase(I, 1); // drop an existing delimiter
    else
      Text.insert(I, 1, Delims[R.below(6)]); // inject a stray one
  }
  return Sources;
}

std::vector<SourceInput> genTypeErrorSeeded(uint64_t Seed, double Scale) {
  std::vector<SourceInput> Sources = genMixed(Seed, Scale);
  Rng R(Seed ^ 0x6f1a'8840'bd92'c5e7ULL);
  std::ostringstream S;
  S << "class Seeded" << R.below(100) << " {\n";
  unsigned Errors = static_cast<unsigned>(R.range(1, 4));
  for (unsigned E = 0; E < Errors; ++E) {
    switch (R.below(5)) {
    case 0:
      S << "  val a" << E << ": Unknown" << R.below(50) << " = 1\n";
      break;
    case 1:
      S << "  def f" << E << "(x: Int): Int = missing" << R.below(50)
        << " + x\n";
      break;
    case 2:
      S << "  def g" << E << "(x: Int): Int = x\n";
      S << "  def h" << E << "(): Int = g" << E << "(1, 2)\n";
      break;
    case 3:
      S << "  val b" << E << ": Int = \"not an int\"\n";
      break;
    default:
      S << "  def k" << E << "(): Int = new NoSuchClass" << R.below(50)
        << "(1)\n";
      break;
    }
  }
  S << "}\n";
  Sources.push_back({"type_error_seeded.scala", S.str()});
  return Sources;
}

} // namespace

std::vector<SourceInput> mpc::generateFamily(Family F, uint64_t Seed,
                                             double Scale) {
  switch (F) {
  case Family::Mixed:
    return genMixed(Seed, Scale);
  case Family::DeepInheritance:
    return genDeepInheritance(Seed, Scale);
  case Family::ClosureHeavy:
    return genClosureHeavy(Seed, Scale);
  case Family::MegaMethods:
    return genMegaMethods(Seed, Scale);
  case Family::ManyTinyUnits:
    return genManyTinyUnits(Seed, Scale);
  case Family::Truncated:
    return genTruncated(Seed, Scale);
  case Family::TokenMutation:
    return genTokenMutation(Seed, Scale);
  case Family::UnbalancedDelims:
    return genUnbalancedDelims(Seed, Scale);
  case Family::TypeErrorSeeded:
    return genTypeErrorSeeded(Seed, Scale);
  }
  return {};
}
