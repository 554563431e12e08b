#include "workload/Fuzzer.h"

#include "backend/Interpreter.h"
#include "backend/Linker.h"
#include "backend/VM.h"
#include "driver/Driver.h"

#include <exception>

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
    if (!O.HasErrors && !Out.EntryPoints.empty()) {
      // The tree-walker is the oracle; the linked VM must match it.
      Interpreter I(Comp, Out.Units);
      ExecResult R = I.runMain(Out.EntryPoints.front());
      O.Output = R.Output;
      O.Uncaught = R.Uncaught;
      if (R.Uncaught)
        O.Error = R.Error;

      // linkProgram verifies every method; the VM refuses a program
      // with failures, so a rejection is reported instead of a run.
      LinkedProgram Linked = linkProgram(Out.Prog, Comp);
      for (const VerifyFailure &F : Linked.Failures)
        O.VerifyText += "pc " + std::to_string(F.Pc) + ": " + F.Message + "\n";
      if (Linked.Failures.empty()) {
        VM M(Comp, Linked);
        O.RanVM = true;
        O.VmDiff = diffEngines(R, M.runMain(Out.EntryPoints.front()));
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
  if (A.VerifyText != B.VerifyText || A.RanVM != B.RanVM ||
      A.VmDiff != B.VmDiff)
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

  if (!Cold.CheckText.empty())
    Stats.Violations.push_back(
        {C, "check-failed", caseLabel(C) + ":\n" + Cold.CheckText});
  if (!Cold.VerifyText.empty())
    Stats.Violations.push_back(
        {C, "verify-rejected", caseLabel(C) + ":\n" + Cold.VerifyText});
  if (!Cold.VmDiff.empty())
    Stats.Violations.push_back(
        {C, "vm-mismatch", caseLabel(C) + ": " + Cold.VmDiff});

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
