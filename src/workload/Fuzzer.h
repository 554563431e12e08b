//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic full-pipeline fuzzing harness. Feeds seeded generator
/// families (valid and adversarial) through lex -> parse -> type ->
/// transforms (TreeChecker after every group) -> codegen, then links, and
/// so verifies, each clean program and runs its main RunsPerCase times on
/// both engines: the tree-walker and the bytecode VM. It checks the
/// totality properties the compile service depends on:
///
///   1. no input crashes the compiler — invalid programs produce
///      diagnostics, never aborts or unhandled exceptions;
///   2. diagnostics and program output are deterministic — two cold runs
///      of the same seed are byte-identical;
///   3. context recycling is clean — compiling on a warm, reset() -recycled
///      context (including right after an error-laden job) is
///      byte-identical to a cold context;
///   4. the compiler's own invariants hold — the TreeChecker finds
///      nothing, the verifier accepts every generated method, the VM
///      matches the tree-walker byte for byte on every run of the
///      sequence (module state carries over, and the VM may collect its
///      heap between runs), and after a clean compile
///      distinct interned types render to distinct strings (the typed
///      dumps every differential test compares are only as faithful as
///      that rendering).
///
/// Every case is reproducible from (family, seed, scale) alone; a failure
/// report names all three.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_WORKLOAD_FUZZER_H
#define MPC_WORKLOAD_FUZZER_H

#include "core/CompilerContext.h"
#include "workload/ProgramGenerator.h"

#include <string>
#include <vector>

namespace mpc {

/// Runs of main per clean case, on one tree-walker and one VM.
constexpr unsigned RunsPerCase = 3;

/// One fuzz input: a (family, seed) pair at a given size scale.
struct FuzzCase {
  Family F = Family::Mixed;
  uint64_t Seed = 0;
  double Scale = 0.25;
};

/// What one compile (+ run, when clean) produced. All fields are
/// deterministic functions of the input program.
struct FuzzOutcome {
  bool Crashed = false;   // an exception escaped the pipeline
  bool HasErrors = false; // frontend reported diagnostics
  std::string DiagText;   // rendered diagnostics, stable format
  std::string Output;     // interpreter stdout (clean compiles only)
  bool Uncaught = false;  // interpreter uncaught MiniScala exception
  std::string Error;      // crash / uncaught-exception message
  std::string CheckText;  // TreeChecker findings, one "phase: msg" a line
  std::string VerifyText; // verifier findings from linkProgram
  bool RanVM = false;     // the linked program ran in the VM
  std::string VmDiff;     // first run at which the VM differed, and how
  uint64_t VmCollections = 0; // VM heap collections over the runs
  std::string RenderText; // renderings shared by distinct types (clean)

  bool operator==(const FuzzOutcome &O) const {
    return Crashed == O.Crashed && HasErrors == O.HasErrors &&
           DiagText == O.DiagText && Output == O.Output &&
           Uncaught == O.Uncaught && Error == O.Error &&
           CheckText == O.CheckText && VerifyText == O.VerifyText &&
           RanVM == O.RanVM && VmDiff == O.VmDiff &&
           VmCollections == O.VmCollections && RenderText == O.RenderText;
  }
};

/// One property violation, with enough context to replay the case.
struct FuzzViolation {
  FuzzCase Case;
  std::string Kind; // "crash" | "valid-family-rejected" |
                    // "nondeterministic" | "warm-cold-mismatch" |
                    // "check-failed" | "verify-rejected" | "vm-mismatch" |
                    // "render-collision"
  std::string Detail;
};

/// Campaign tallies.
struct FuzzStats {
  uint64_t CasesRun = 0;
  uint64_t CleanCompiles = 0;
  uint64_t ErrorCompiles = 0;
  uint64_t DiagsSeen = 0;
  uint64_t VmRuns = 0; // cases whose linked program ran in the VM
  uint64_t VmCollections = 0; // VM heap collections, all cases
  std::vector<FuzzViolation> Violations;

  bool ok() const { return Violations.empty(); }
};

/// Renders diagnostics in the stable "file:line:col: severity: msg" form
/// used for byte-comparisons.
std::string renderDiags(const DiagnosticEngine &Diags);

/// Compiles \p Sources on \p Comp with the standard fused pipeline and
/// the TreeChecker on. When the compile is clean it checks that the
/// context's interned types render apart, links it and, when it has an
/// entry point, runs main RunsPerCase times on one tree-walker and on one
/// VM, comparing each pair of runs.
/// Exceptions are captured into the outcome instead of escaping. The
/// caller owns context hygiene (reset() between jobs); all pipeline
/// outputs are destroyed before this returns, so a reset() directly after
/// is legal.
FuzzOutcome runPipelineOnce(CompilerContext &Comp,
                            std::vector<SourceInput> Sources);

/// Runs one case's full check set: cold compile (whose checker, verifier
/// and VM findings become violations), identical cold rerun
/// (determinism), and a compile on \p WarmComp — which is reset() after
/// use — compared byte-for-byte against the cold outcome. Appends any
/// violations to \p Stats and returns the cold outcome.
FuzzOutcome runFuzzCase(CompilerContext &WarmComp, const FuzzCase &C,
                        FuzzStats &Stats);

/// Full campaign over \p Families x [StartSeed, StartSeed + NumSeeds).
/// One warm context lives across the whole campaign, recycled between
/// cases, so error-path state leaks surface as warm/cold mismatches in
/// later cases.
FuzzStats runFuzzCampaign(const std::vector<Family> &Families,
                          uint64_t StartSeed, uint64_t NumSeeds,
                          double Scale);

} // namespace mpc

#endif // MPC_WORKLOAD_FUZZER_H
