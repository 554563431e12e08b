//===----------------------------------------------------------------------===//
// Custom phase: the downstream-contributor story from §7 of the paper.
//
// A user-written miniphase — an integer constant folder — is inserted
// into the standard pipeline after TailRec. Because it is a miniphase, it
// fuses into the surrounding block: the extended pipeline performs the
// SAME number of tree traversals as the stock one. The phase also ships a
// postcondition, so -Ycheck verifies that no later phase reintroduces
// foldable arithmetic.
//
//   $ ./examples/custom_phase
//===----------------------------------------------------------------------===//

#include "backend/Interpreter.h"
#include "driver/Driver.h"
#include "support/OStream.h"

#include <cstdio>

using namespace mpc;

namespace {

/// Folds `<intlit> op <intlit>` for + - * into a single literal. A
/// realistic peephole in the spirit of Dotty's VCElideAllocations.
class ConstFoldPhase : public MiniPhase {
public:
  ConstFoldPhase()
      : MiniPhase("ConstFold", "folds constant integer arithmetic") {
    declareTransforms({TreeKind::Apply});
    addRunsAfter("FirstTransform"); // operators are method calls by then
  }

  TreePtr transformApply(Apply *T, PhaseRunContext &Ctx) override {
    int64_t Folded;
    if (!foldable(T, Ctx.Comp, &Folded))
      return TreePtr(T);
    ++NumFolded;
    return Ctx.trees().makeLiteral(T->loc(), Constant::makeInt(Folded),
                                   T->type());
  }

  /// No foldable arithmetic survives this phase — and no later phase may
  /// reintroduce any (enforced by the TreeChecker on every later group).
  bool checkPostCondition(const Tree *T,
                          CompilerContext &Comp) const override {
    if (const auto *A = dyn_cast<Apply>(T))
      return !foldable(A, Comp, nullptr);
    return true;
  }

  unsigned folded() const { return NumFolded; }

private:
  static bool foldable(const Apply *T, CompilerContext &Comp,
                       int64_t *Result) {
    const auto *Sel = dyn_cast<Select>(T->fun());
    if (!Sel || T->numArgs() != 1 || !Comp.syms().isPrimOp(Sel->sym()))
      return false;
    std::string_view Op = Sel->sym()->name().text();
    if (Op != "+" && Op != "-" && Op != "*")
      return false;
    const auto *L = dyn_cast<Literal>(Sel->qual());
    const auto *R = dyn_cast<Literal>(T->arg(0));
    if (!L || !R || L->value().kind() != Constant::Int ||
        R->value().kind() != Constant::Int)
      return false;
    if (Result) {
      int64_t A = L->value().intValue(), B = R->value().intValue();
      *Result = static_cast<int32_t>(Op == "+"   ? A + B
                                     : Op == "-" ? A - B
                                                 : A * B);
    }
    return true;
  }

  unsigned NumFolded = 0;
};

const char *DemoSource = R"(
object Main {
  def area(): Int = (3 + 4) * (10 - 2) // folds to 7 * 8, then to 56
  def main(args: Array[String]): Unit = {
    println(2 * 3 + 4 * 5)             // folds to 26 at compile time
    println(area())
  }
}
)";

} // namespace

int main() {
  // 1. Build the stock plan and the customized one.
  std::vector<std::string> Errors;
  PhasePlan Stock = makeStandardPlan(/*Fuse=*/true, Errors);

  ConstFoldPhase *Folder = nullptr;
  PhasePlan Custom = makeCustomizedPlan(
      /*Fuse=*/true, Errors,
      [&](std::vector<std::unique_ptr<Phase>> &Phases) {
        auto Mine = std::make_unique<ConstFoldPhase>();
        Folder = Mine.get();
        for (size_t I = 0; I < Phases.size(); ++I) {
          if (Phases[I]->name() == "TailRec") {
            Phases.insert(Phases.begin() + I + 1, std::move(Mine));
            return;
          }
        }
        Phases.push_back(std::move(Mine)); // fallback: end of pipeline
      });
  if (!Errors.empty()) {
    std::printf("plan error: %s\n", Errors.front().c_str());
    return 1;
  }

  // 2. Compile the same program under both plans, with -Ycheck on.
  CompilerContext Comp1, Comp2;
  Comp1.options().CheckTrees = Comp2.options().CheckTrees = true;
  CompileOutput Plain = compileProgramWithPlan(
      Comp1, {{"demo.scala", DemoSource}}, Stock);
  CompileOutput Folded = compileProgramWithPlan(
      Comp2, {{"demo.scala", DemoSource}}, Custom);

  std::printf("stock pipeline:      %2zu phases, %zu traversals\n",
              Stock.phaseCount(),
              Plain.Groups.size());
  std::printf("with ConstFold:      %2zu phases, %zu traversals\n",
              Custom.phaseCount(),
              Folded.Groups.size());
  std::printf("=> one more phase, same traversal count: the new phase "
              "fused into its block.\n\n");

  std::printf("constants folded at compile time: %u\n", Folder->folded());
  std::printf("checker failures (postcondition enforced on all later "
              "groups): %zu\n\n",
              Folded.CheckFailures.size());

  // 3. Both binaries behave identically.
  for (CompileOutput *Out : {&Plain, &Folded}) {
    CompilerContext &Comp = Out == &Plain ? Comp1 : Comp2;
    Interpreter I(Comp, Out->Units);
    ExecResult R = I.runMain(Out->EntryPoints.front());
    std::printf("%s output: %s", Out == &Plain ? "stock " : "folded",
                R.Output.c_str());
  }
  return 0;
}
