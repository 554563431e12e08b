//===----------------------------------------------------------------------===//
// Full-pipeline fuzz tests: seeded generator families (valid and
// adversarial) through lex -> parse -> type -> transforms -> codegen,
// then the tree-walker and the linked VM. The properties under test are
// the compile service's totality contract — no input crashes the
// compiler, diagnostics are deterministic, and a warm reset()-recycled
// context behaves byte-identically to a cold one, including immediately
// after error-laden jobs — plus the compiler's own invariants: the
// TreeChecker finds nothing, the verifier accepts every method, and the
// VM matches the tree-walker.
//===----------------------------------------------------------------------===//

#include "workload/Fuzzer.h"

#include "driver/Driver.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

std::string describeViolations(const FuzzStats &Stats) {
  std::string S;
  for (const FuzzViolation &V : Stats.Violations)
    S += "[" + V.Kind + "] " + V.Detail + "\n";
  return S;
}

std::string familyTestName(Family F) {
  // gtest names must be alphanumeric; family names use dashes.
  std::string N = familyName(F);
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

class FamilyCampaign : public ::testing::TestWithParam<Family> {};

// A bounded campaign per family: cold/determinism/warm checks over a
// seed range. Everything is deterministic, so a pass is stable.
TEST_P(FamilyCampaign, PropertiesHold) {
  Family F = GetParam();
  FuzzStats Stats = runFuzzCampaign({F}, /*StartSeed=*/0, /*NumSeeds=*/12,
                                    /*Scale=*/0.2);
  EXPECT_EQ(Stats.CasesRun, 12u);
  EXPECT_TRUE(Stats.ok()) << describeViolations(Stats);
  if (familyIsValid(F)) {
    EXPECT_EQ(Stats.CleanCompiles, Stats.CasesRun)
        << familyName(F) << " is a valid family; no case may diagnose";
    EXPECT_GT(Stats.VmRuns, 0u);
    EXPECT_EQ(Stats.VmRuns, Stats.CasesRun)
        << familyName(F) << ": every valid case must also run in the VM";
  }
}


INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilyCampaign,
                         ::testing::ValuesIn(allFamilies()),
                         [](const ::testing::TestParamInfo<Family> &Info) {
                           return familyTestName(Info.param);
                         });

// The adversarial families must actually exercise the error path: across
// a seed sweep each one has to reject a healthy share of its programs.
// (Individual seeds may mutate into accidentally-valid programs; all of
// them doing so would mean the family is broken.)
TEST(AdversarialFamilies, ProduceDiagnostics) {
  for (Family F : allFamilies()) {
    if (familyIsValid(F))
      continue;
    unsigned WithErrors = 0;
    const unsigned Seeds = 10;
    for (uint64_t S = 0; S < Seeds; ++S) {
      CompilerContext Comp;
      FuzzOutcome O = runPipelineOnce(Comp, generateFamily(F, S, 0.2));
      EXPECT_FALSE(O.Crashed) << familyName(F) << " seed " << S << ": "
                              << O.Error;
      if (O.HasErrors)
        ++WithErrors;
    }
    EXPECT_GE(WithErrors, Seeds / 2)
        << familyName(F) << " rarely produces diagnostics";
  }
}

// TypeErrorSeeded is constructed so every seed contains at least one
// guaranteed type error; it must never slip through cleanly, and the
// errors must come from the typer (the program parses).
TEST(AdversarialFamilies, TypeErrorSeededAlwaysDiagnoses) {
  for (uint64_t S = 0; S < 10; ++S) {
    CompilerContext Comp;
    FuzzOutcome O =
        runPipelineOnce(Comp, generateFamily(Family::TypeErrorSeeded, S, 0.2));
    EXPECT_FALSE(O.Crashed);
    EXPECT_TRUE(O.HasErrors) << "seed " << S << " compiled cleanly";
  }
}

// The explicit recycling story, independent of the campaign: compile a
// known-broken program on a context, reset it, and compile a real corpus
// program — the warm result must be byte-identical to a cold context's.
TEST(WarmAfterError, ByteIdenticalToCold) {
  const CorpusProgram *P = &corpusPrograms().front();

  auto CompileCorpus = [&](CompilerContext &Comp) {
    std::vector<SourceInput> Sources;
    Sources.push_back({P->Name + ".scala", P->Source});
    return runPipelineOnce(Comp, std::move(Sources));
  };

  FuzzOutcome Cold;
  {
    CompilerContext Comp;
    Cold = CompileCorpus(Comp);
  }
  ASSERT_FALSE(Cold.HasErrors);
  ASSERT_FALSE(Cold.Crashed);
  EXPECT_EQ(Cold.Output, P->ExpectedOutput);

  CompilerContext Warm;
  for (uint64_t S = 0; S < 4; ++S) {
    // Poison the context with an error-laden job, then recycle.
    FuzzOutcome Bad = runPipelineOnce(
        Warm, generateFamily(Family::UnbalancedDelims, S, 0.2));
    EXPECT_FALSE(Bad.Crashed) << Bad.Error;
    Warm.reset();

    FuzzOutcome Recycled = CompileCorpus(Warm);
    Warm.reset();
    EXPECT_EQ(Recycled.DiagText, Cold.DiagText) << "after bad seed " << S;
    EXPECT_EQ(Recycled.Output, Cold.Output) << "after bad seed " << S;
    EXPECT_TRUE(Recycled == Cold) << "after bad seed " << S;
  }
}

// Generator-side determinism: families are pure functions of
// (family, seed, scale), down to the byte.
TEST(FamilyGenerator, Deterministic) {
  for (Family F : allFamilies())
    for (uint64_t S : {0ull, 3ull, 17ull}) {
      auto A = generateFamily(F, S, 0.3);
      auto B = generateFamily(F, S, 0.3);
      ASSERT_EQ(A.size(), B.size()) << familyName(F);
      for (size_t I = 0; I < A.size(); ++I) {
        EXPECT_EQ(A[I].FileName, B[I].FileName);
        EXPECT_EQ(A[I].Text, B[I].Text) << familyName(F) << " unit " << I;
      }
    }
}

// Different seeds must actually vary the program (guards against a family
// ignoring its seed and collapsing the campaign into one test case).
TEST(FamilyGenerator, SeedsVary) {
  for (Family F : allFamilies()) {
    auto A = generateFamily(F, 1, 0.3);
    auto B = generateFamily(F, 2, 0.3);
    std::string TextA, TextB;
    for (const auto &S : A)
      TextA += S.Text;
    for (const auto &S : B)
      TextB += S.Text;
    EXPECT_NE(TextA, TextB) << familyName(F) << " ignores its seed";
  }
}

// The per-file diagnostic cap end-to-end: a file with very many
// independent root causes must stop at the cap, record the suppression,
// and keep hasErrors(). (Parse garbage won't do here — panic mode folds
// a junk region into one diagnostic — so flood the typer instead.)
TEST(DiagnosticFlood, CappedPerFile) {
  std::string Flood = "class C {\n";
  for (int I = 0; I < 200; ++I)
    Flood += "  val a" + std::to_string(I) + ": Int = \"s\"\n";
  Flood += "}\n";
  CompilerContext Comp;
  FuzzOutcome O = runPipelineOnce(Comp, {{"flood.scala", Flood}});
  EXPECT_FALSE(O.Crashed) << O.Error;
  EXPECT_TRUE(O.HasErrors);
  EXPECT_LE(Comp.diags().emittedCount(),
            static_cast<size_t>(Comp.diags().maxDiagnosticsPerFile()) + 1);
  EXPECT_GT(Comp.diags().suppressedCount(), 0u);
  EXPECT_NE(O.DiagText.find("too many errors, stopping"), std::string::npos);
}

// Pathological nesting must produce a diagnostic, not a stack overflow.
TEST(PathologicalInputs, DeepNestingIsDiagnosed) {
  std::string Deep = "class C { def f(): Int = ";
  for (int I = 0; I < 5000; ++I)
    Deep += "(1 + ";
  Deep += "0";
  // Unclosed on purpose; the parser has to survive both the depth and the
  // missing delimiters.
  CompilerContext Comp;
  FuzzOutcome O = runPipelineOnce(Comp, {{"deep.scala", Deep}});
  EXPECT_FALSE(O.Crashed) << O.Error;
  EXPECT_TRUE(O.HasErrors);
  EXPECT_NE(O.DiagText.find("nesting too deep"), std::string::npos);
}

TEST(PathologicalInputs, DeepTypeNestingIsDiagnosed) {
  std::string Deep = "class C { val x: ";
  for (int I = 0; I < 5000; ++I)
    Deep += "Box[";
  Deep += "Int";
  CompilerContext Comp;
  FuzzOutcome O = runPipelineOnce(Comp, {{"deeptype.scala", Deep}});
  EXPECT_FALSE(O.Crashed) << O.Error;
  EXPECT_TRUE(O.HasErrors);
}

} // namespace
