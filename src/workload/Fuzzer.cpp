#include "workload/Fuzzer.h"

#include "ast/Symbols.h"
#include "backend/Interpreter.h"
#include "backend/Linker.h"
#include "backend/VM.h"
#include "driver/Driver.h"

#include <exception>
#include <unordered_map>

using namespace mpc;

std::string mpc::renderDiags(const DiagnosticEngine &Diags) {
  std::string S;
  for (const Diagnostic &D : Diags.all()) {
    if (D.Loc.FileId < Diags.fileCount())
      S += Diags.fileName(D.Loc.FileId);
    else
      S += "<unknown>";
    S += ":" + std::to_string(D.Loc.Line) + ":" + std::to_string(D.Loc.Col);
    switch (D.Severity) {
    case DiagSeverity::Error:
      S += ": error: ";
      break;
    case DiagSeverity::Warning:
      S += ": warning: ";
      break;
    case DiagSeverity::Note:
      S += ": note: ";
      break;
    }
    S += D.Message;
    S += '\n';
  }
  return S;
}

namespace {

/// "output / uncaught / error" difference between the two engines, or
/// empty when the VM matched the tree-walker byte for byte.
std::string diffEngines(const ExecResult &Oracle, const ExecResult &Vm) {
  std::string D;
  if (Oracle.Output != Vm.Output)
    D += "program output differs:\n--- tree-walker\n" + Oracle.Output +
         "--- vm\n" + Vm.Output;
  if (Oracle.Uncaught != Vm.Uncaught ||
      (Oracle.Uncaught && Oracle.Error != Vm.Error))
    D += "error state differs: tree-walker '" +
         (Oracle.Uncaught ? Oracle.Error : std::string()) + "' vs vm '" +
         (Vm.Uncaught ? Vm.Error : std::string()) + "'; ";
  return D;
}

/// \p T spelled without ambiguity: a kind tag, then its parts, each
/// list bracketed. Symbols appear by name, so two types share a key only
/// when they differ in nothing but which same-named symbol they name.
void structureKey(const Type *T, std::string &Out) {
  Out += char('a' + static_cast<unsigned>(T->kind()));
  auto List = [&](const std::vector<const Type *> &Ts) {
    Out += '(';
    for (const Type *E : Ts) {
      structureKey(E, Out);
      Out += ',';
    }
    Out += ')';
  };
  auto Named = [&](const Symbol *S) {
    Out += S->name().text();
    Out += ';';
  };
  switch (T->kind()) {
  case TypeKind::Primitive:
    Out += char('0' + static_cast<unsigned>(cast<PrimitiveType>(T)->prim()));
    return;
  case TypeKind::Class:
    Named(cast<ClassType>(T)->cls());
    List(cast<ClassType>(T)->args());
    return;
  case TypeKind::Array:
    structureKey(cast<ArrayType>(T)->elem(), Out);
    return;
  case TypeKind::Method:
    List(cast<MethodType>(T)->params());
    structureKey(cast<MethodType>(T)->result(), Out);
    return;
  case TypeKind::Poly:
    Out += '[';
    for (const Symbol *P : cast<PolyType>(T)->typeParams())
      Named(P);
    Out += ']';
    structureKey(cast<PolyType>(T)->underlying(), Out);
    return;
  case TypeKind::Function:
    List(cast<FunctionType>(T)->params());
    structureKey(cast<FunctionType>(T)->result(), Out);
    return;
  case TypeKind::Expr:
    structureKey(cast<ExprType>(T)->result(), Out);
    return;
  case TypeKind::Repeated:
    structureKey(cast<RepeatedType>(T)->elem(), Out);
    return;
  case TypeKind::Union:
    List({cast<UnionType>(T)->left(), cast<UnionType>(T)->right()});
    return;
  case TypeKind::Intersection:
    List({cast<IntersectionType>(T)->left(),
          cast<IntersectionType>(T)->right()});
    return;
  case TypeKind::TypeParam:
    Named(cast<TypeParamRef>(T)->param());
    return;
  case TypeKind::Error:
    return;
  }
}

/// One line per rendering that two interned types of \p Types share
/// while differing in structure, or empty when the rendering keeps every
/// structure apart. Types that differ only in which same-named symbol
/// they name (the builtins' asInstanceOf and newArray each have a type
/// parameter T) render alike by design, as they read in source.
std::string renderCollisions(const TypeContext &Types) {
  std::unordered_map<std::string, std::string> KeyOf; // rendering -> key
  std::string Out;
  Types.forEachType([&](const Type *T) {
    std::string Key;
    structureKey(T, Key);
    auto [It, New] = KeyOf.try_emplace(T->show(), Key);
    if (!New && It->second != Key)
      Out += "'" + It->first + "' renders two types of different shape\n";
  });
  return Out;
}

} // namespace

FuzzOutcome mpc::runPipelineOnce(CompilerContext &Comp,
                                 std::vector<SourceInput> Sources) {
  FuzzOutcome O;
  try {
    // The paper's -Ycheck: the TreeChecker runs after every group.
    Comp.options().CheckTrees = true;
    // Scope the output so trees and bytecode die before the caller's
    // reset() (which asserts the managed heap is empty).
    CompileOutput Out =
        compileProgram(Comp, std::move(Sources), PipelineKind::StandardFused);
    O.HasErrors = Comp.diags().hasErrors();
    O.DiagText = renderDiags(Comp.diags());
    for (const CheckFailure &F : Out.CheckFailures)
      O.CheckText += F.PhaseName + ": " + F.Message + "\n";
    if (!O.HasErrors)
      O.RenderText = renderCollisions(Comp.types());
    if (!O.HasErrors) {
      // linkProgram verifies every method, entry point or not; the VM
      // refuses a program with failures, so a rejection is reported
      // instead of a run.
      LinkedProgram Linked = linkProgram(Out.Prog, Comp);
      for (const VerifyFailure &F : Linked.Failures)
        O.VerifyText += "pc " + std::to_string(F.Pc) + ": " + F.Message + "\n";
      if (!Out.EntryPoints.empty()) {
        // The tree-walker is the oracle; the linked VM must match it on
        // every run of one sequence, as module state carries over.
        Symbol *Entry = Out.EntryPoints.front();
        Interpreter I(Comp, Out.Units);
        std::vector<ExecResult> Oracle;
        for (unsigned Run = 0; Run < RunsPerCase; ++Run)
          Oracle.push_back(I.runMain(Entry));
        O.Output = Oracle.front().Output;
        O.Uncaught = Oracle.front().Uncaught;
        if (O.Uncaught)
          O.Error = Oracle.front().Error;
        if (Linked.Failures.empty()) {
          const char *Collections = "backend.vm.gc.collections";
          const uint64_t Before = Comp.stats().get(Collections);
          VM M(Comp, Linked);
          O.RanVM = true;
          // Fuzz programs allocate too little to reach the collection
          // floor in a few runs, so each repeated run starts on a heap
          // collected on purpose.
          for (unsigned Run = 0; Run < RunsPerCase && O.VmDiff.empty();
               ++Run) {
            if (Run > 0)
              M.collect();
            if (std::string D = diffEngines(Oracle[Run], M.runMain(Entry));
                !D.empty())
              O.VmDiff = "run " + std::to_string(Run + 1) + ": " + D;
          }
          O.VmCollections = Comp.stats().get(Collections) - Before;
        }
      }
    }
  } catch (const std::exception &E) {
    O.Crashed = true;
    O.Error = E.what();
  } catch (...) {
    O.Crashed = true;
    O.Error = "non-standard exception";
  }
  return O;
}

namespace {

std::string caseLabel(const FuzzCase &C) {
  return std::string(familyName(C.F)) + " seed=" + std::to_string(C.Seed) +
         " scale=" + std::to_string(C.Scale);
}

FuzzOutcome runCold(const FuzzCase &C) {
  CompilerContext Comp;
  return runPipelineOnce(Comp, generateFamily(C.F, C.Seed, C.Scale));
}

std::string diffOutcomes(const FuzzOutcome &A, const FuzzOutcome &B) {
  std::string D;
  if (A.Crashed != B.Crashed)
    D += "crashed " + std::to_string(A.Crashed) + " vs " +
         std::to_string(B.Crashed) + "; ";
  if (A.HasErrors != B.HasErrors)
    D += "hasErrors " + std::to_string(A.HasErrors) + " vs " +
         std::to_string(B.HasErrors) + "; ";
  if (A.DiagText != B.DiagText)
    D += "diagnostics differ:\n--- first\n" + A.DiagText +
         "--- second\n" + B.DiagText;
  if (A.Output != B.Output)
    D += "program output differs:\n--- first\n" + A.Output +
         "--- second\n" + B.Output;
  if (A.Uncaught != B.Uncaught || A.Error != B.Error)
    D += "error state differs: '" + A.Error + "' vs '" + B.Error + "'; ";
  if (A.CheckText != B.CheckText)
    D += "tree-checker findings differ:\n--- first\n" + A.CheckText +
         "--- second\n" + B.CheckText;
  if (A.RenderText != B.RenderText)
    D += "type-rendering collisions differ:\n--- first\n" + A.RenderText +
         "--- second\n" + B.RenderText;
  if (A.VerifyText != B.VerifyText || A.RanVM != B.RanVM ||
      A.VmDiff != B.VmDiff || A.VmCollections != B.VmCollections)
    D += "vm outcome differs; ";
  return D;
}

} // namespace

FuzzOutcome mpc::runFuzzCase(CompilerContext &WarmComp, const FuzzCase &C,
                             FuzzStats &Stats) {
  ++Stats.CasesRun;
  FuzzOutcome Cold = runCold(C);

  if (Cold.Crashed)
    Stats.Violations.push_back(
        {C, "crash", caseLabel(C) + ": " + Cold.Error});
  if (Cold.HasErrors)
    ++Stats.ErrorCompiles;
  else
    ++Stats.CleanCompiles;
  for (char Ch : Cold.DiagText)
    if (Ch == '\n')
      ++Stats.DiagsSeen;
  if (Cold.RanVM)
    ++Stats.VmRuns;
  Stats.VmCollections += Cold.VmCollections;

  if (!Cold.CheckText.empty())
    Stats.Violations.push_back(
        {C, "check-failed", caseLabel(C) + ":\n" + Cold.CheckText});
  if (!Cold.VerifyText.empty())
    Stats.Violations.push_back(
        {C, "verify-rejected", caseLabel(C) + ":\n" + Cold.VerifyText});
  if (!Cold.VmDiff.empty())
    Stats.Violations.push_back(
        {C, "vm-mismatch", caseLabel(C) + ": " + Cold.VmDiff});
  if (!Cold.RenderText.empty())
    Stats.Violations.push_back(
        {C, "render-collision", caseLabel(C) + ":\n" + Cold.RenderText});

  if (familyIsValid(C.F)) {
    if (Cold.HasErrors)
      Stats.Violations.push_back({C, "valid-family-rejected",
                                  caseLabel(C) + ":\n" + Cold.DiagText});
    else if (Cold.Uncaught)
      Stats.Violations.push_back({C, "valid-family-rejected",
                                  caseLabel(C) +
                                      ": uncaught exception: " + Cold.Error});
    else if (Cold.Output.empty())
      Stats.Violations.push_back(
          {C, "valid-family-rejected",
           caseLabel(C) + ": produced no program output"});
  }

  // Determinism: a second cold run must be byte-identical.
  FuzzOutcome Cold2 = runCold(C);
  if (!(Cold == Cold2))
    Stats.Violations.push_back(
        {C, "nondeterministic", caseLabel(C) + ": " +
                                    diffOutcomes(Cold, Cold2)});

  // Warm reuse: the long-lived recycled context must match cold exactly,
  // including (especially) right after earlier error-laden cases.
  FuzzOutcome Warm =
      runPipelineOnce(WarmComp, generateFamily(C.F, C.Seed, C.Scale));
  WarmComp.reset();
  if (!(Cold == Warm))
    Stats.Violations.push_back(
        {C, "warm-cold-mismatch", caseLabel(C) + ": " +
                                      diffOutcomes(Cold, Warm)});
  return Cold;
}

FuzzStats mpc::runFuzzCampaign(const std::vector<Family> &Families,
                               uint64_t StartSeed, uint64_t NumSeeds,
                               double Scale) {
  FuzzStats Stats;
  CompilerContext WarmComp;
  for (uint64_t S = 0; S < NumSeeds; ++S)
    for (Family F : Families)
      runFuzzCase(WarmComp, {F, StartSeed + S, Scale}, Stats);
  return Stats;
}
