//===----------------------------------------------------------------------===//
// Differential testing across generator families (ROADMAP 4a): for every
// valid stress family and a sweep of seeds, the fused pipeline, the
// unfused pipeline, and the legacy (always-copy) baseline must produce
// byte-identical interpreter output. This is the paper's §6 soundness
// claim applied to adversarially-shaped — but well-typed — programs
// rather than the fixed corpus.
//
// OutputPins fixes the absolute bytecode and typed-dump fingerprints of
// generated workloads, so a change that alters every pipeline's output
// the same way (which the relative checks above cannot see) fails here.
//
// Sharded via GTEST_TOTAL_SHARDS/GTEST_SHARD_INDEX (see CMakeLists).
//===----------------------------------------------------------------------===//

#include "ast/TreePrinter.h"
#include "backend/Interpreter.h"
#include "driver/Driver.h"
#include "support/Fingerprint.h"
#include "workload/ProgramGenerator.h"

#include <cstring>
#include <gtest/gtest.h>

using namespace mpc;

namespace {

struct RunResult {
  std::string Output;
  bool Clean = false;
  std::string Problem;
};

RunResult runFamilyWith(Family F, uint64_t Seed, PipelineKind Kind) {
  RunResult R;
  CompilerContext Comp;
  Comp.options().CheckTrees = true;
  CompileOutput Out =
      compileProgram(Comp, generateFamily(F, Seed, 0.3), Kind);
  if (Comp.diags().hasErrors()) {
    R.Problem = "diagnostics on a valid family";
    return R;
  }
  for (const CheckFailure &C : Out.CheckFailures) {
    R.Problem += "checker: " + C.Message + "\n";
    return R;
  }
  if (Out.EntryPoints.empty()) {
    R.Problem = "no entry point";
    return R;
  }
  Interpreter I(Comp, Out.Units);
  ExecResult E = I.runMain(Out.EntryPoints.front());
  if (E.Uncaught) {
    R.Problem = "uncaught: " + E.Error;
    return R;
  }
  R.Output = E.Output;
  R.Clean = true;
  return R;
}

std::string familyTestName(Family F) {
  std::string N = familyName(F);
  for (char &C : N)
    if (C == '-')
      C = '_';
  return N;
}

std::vector<Family> validFamilies() {
  std::vector<Family> V;
  for (Family F : allFamilies())
    if (familyIsValid(F))
      V.push_back(F);
  return V;
}

class FamilyDifferential
    : public ::testing::TestWithParam<std::tuple<Family, uint64_t>> {};

TEST_P(FamilyDifferential, FusedUnfusedLegacyAgree) {
  const auto &[F, Seed] = GetParam();

  RunResult Fused = runFamilyWith(F, Seed, PipelineKind::StandardFused);
  ASSERT_TRUE(Fused.Clean) << familyName(F) << " seed " << Seed << ": "
                           << Fused.Problem;
  EXPECT_FALSE(Fused.Output.empty());

  RunResult Unfused = runFamilyWith(F, Seed, PipelineKind::StandardUnfused);
  ASSERT_TRUE(Unfused.Clean) << familyName(F) << " seed " << Seed << ": "
                             << Unfused.Problem;
  EXPECT_EQ(Fused.Output, Unfused.Output)
      << familyName(F) << " seed " << Seed << ": fused vs unfused";

  RunResult Legacy = runFamilyWith(F, Seed, PipelineKind::Legacy);
  ASSERT_TRUE(Legacy.Clean) << familyName(F) << " seed " << Seed << ": "
                            << Legacy.Problem;
  EXPECT_EQ(Fused.Output, Legacy.Output)
      << familyName(F) << " seed " << Seed << ": fused vs legacy";
}

INSTANTIATE_TEST_SUITE_P(
    ValidFamilies, FamilyDifferential,
    ::testing::Combine(::testing::ValuesIn(validFamilies()),
                       ::testing::Values(0u, 1u, 2u, 5u, 11u, 23u, 47u,
                                         101u)),
    [](const ::testing::TestParamInfo<std::tuple<Family, uint64_t>> &Info) {
      return familyTestName(std::get<0>(Info.param)) + "_seed" +
             std::to_string(std::get<1>(Info.param));
    });

/// Serializes bytecode field by field; symbols and types by their
/// printed names, so the bytes depend on the output only.
struct ProgramBytes {
  std::string B;

  void u64(uint64_t V) {
    B.append(reinterpret_cast<const char *>(&V), sizeof(V));
  }
  void str(const std::string &S) {
    u64(S.size());
    B += S;
  }
  void sym(const Symbol *S) { str(S ? S->fullName() : "<none>"); }
  void type(const Type *T) { str(T ? T->show() : "<none>"); }

  void program(const Program &Prog) {
    for (const ClassFile &CF : Prog.Classes) {
      sym(CF.Cls);
      u64(CF.Fields.size());
      for (const Symbol *F : CF.Fields)
        sym(F);
      u64(CF.Methods.size());
      for (const MethodCode &M : CF.Methods) {
        sym(M.Method);
        u64(M.MaxLocals);
        u64(M.Params.size());
        for (const Symbol *P : M.Params)
          sym(P);
        u64(M.Code.size());
        for (const Instr &I : M.Code) {
          u64(static_cast<uint64_t>(I.Code));
          u64(static_cast<uint64_t>(I.Imm));
          uint64_t NumBits = 0;
          std::memcpy(&NumBits, &I.Num, sizeof(NumBits));
          u64(NumBits);
          str(I.Str);
          sym(I.Sym);
          type(I.TypeRef);
          sym(I.SuperCls);
          u64(static_cast<uint64_t>(static_cast<int64_t>(I.Target)));
          u64(I.ArgCount);
        }
        u64(M.Handlers.size());
        for (const Handler &H : M.Handlers) {
          u64(H.Start);
          u64(H.End);
          u64(H.Entry);
          type(H.CatchType);
          u64(H.IsFinally ? 1 : 0);
        }
      }
    }
    u64(Prog.EntryPoints.size());
    for (const Symbol *E : Prog.EntryPoints)
      sym(E);
  }
};

struct OutputPin {
  const char *Profile; // "dotty" or "stdlib"
  uint64_t Seed;
  bool Fused;
  const char *Code; // fingerprint of the serialized bytecode
  const char *Dump; // fingerprint of the typed tree dumps
};

void PrintTo(const OutputPin &P, std::ostream *OS) {
  *OS << P.Profile << " seed " << P.Seed << (P.Fused ? " fused" : " unfused");
}

class OutputPins : public ::testing::TestWithParam<OutputPin> {};

TEST_P(OutputPins, GeneratedWorkloadKeepsItsFingerprints) {
  const OutputPin &P = GetParam();
  WorkloadProfile W = std::strcmp(P.Profile, "dotty") == 0
                          ? dottyProfile(0.1)
                          : stdlibProfile(0.1);
  W.Seed = P.Seed;
  CompilerContext Comp;
  CompileOutput Out = compileProgram(
      Comp, generateWorkload(W),
      P.Fused ? PipelineKind::StandardFused : PipelineKind::StandardUnfused);
  ASSERT_FALSE(Comp.diags().hasErrors());
  ASSERT_FALSE(Out.Units.empty());

  ProgramBytes Code;
  Code.program(Out.Prog);
  PrintOptions PO;
  PO.ShowTypes = true;
  std::string Dump;
  for (const CompilationUnit &U : Out.Units) {
    Dump += "// === " + U.FileName + " ===\n";
    Dump += treeToString(U.Root.get(), PO);
  }
  EXPECT_EQ(fingerprintString(Code.B).hex(), P.Code);
  EXPECT_EQ(fingerprintString(Dump).hex(), P.Dump);
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedWorkloads, OutputPins,
    ::testing::Values(
        OutputPin{"dotty", 1, true,
                  "0e51e8acdcb08f45b6bb032c62619c32",
                  "49d7ef9ad9f47098601974d0b2706f7f"},
        OutputPin{"dotty", 1, false,
                  "ca608a710a1e3a849bdac83735d9de8c",
                  "5fd4bc5962254e2f5e4b3f4f4c1a69c8"},
        OutputPin{"dotty", 7, true,
                  "81fd6e63029c37ea9c0b5fb068cd3062",
                  "a964844ada1f7398a6de6cc68cd87c07"},
        OutputPin{"dotty", 7, false,
                  "b8f6970fb7d6831185d14048f2f8ab40",
                  "0140367aa2eac5f1580e43e44980ff9d"},
        OutputPin{"stdlib", 1, true,
                  "c70d62f927109f6208a16987513d8477",
                  "8af70edd048e7d8afd4d34e8279ef4e7"},
        OutputPin{"stdlib", 1, false,
                  "d080a07c993a652f92a23675e031b314",
                  "df8c2dcf201be1e1025cdf4caf581288"},
        OutputPin{"stdlib", 7, true,
                  "cd23ce00703361b7d8815b469dc2fb31",
                  "65d40716c92a2493cb714087738b9f34"},
        OutputPin{"stdlib", 7, false,
                  "fba911e689a251c2ee951dcad1316ff1",
                  "654d33427684eab922eae6b8e6c26b11"}),
    [](const ::testing::TestParamInfo<OutputPin> &Info) {
      return std::string(Info.param.Profile) + "_seed" +
             std::to_string(Info.param.Seed) +
             (Info.param.Fused ? "_fused" : "_unfused");
    });

} // namespace
