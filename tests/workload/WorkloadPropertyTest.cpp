//===----------------------------------------------------------------------===//
// Property-style sweeps (TEST_P): for a range of generator seeds and
// scales, the synthetic workload must (a) be deterministic, (b) compile
// cleanly through BOTH pipeline configurations with the TreeChecker on,
// and (c) leak no tree memory.
//===----------------------------------------------------------------------===//

#include "driver/Driver.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

using namespace mpc;

namespace {

class GeneratedWorkload : public ::testing::TestWithParam<
                              std::tuple<uint64_t, int /*kind*/>> {};

TEST_P(GeneratedWorkload, CompilesCleanlyWithCheckersOn) {
  const auto &[Seed, KindIdx] = GetParam();
  WorkloadProfile P = stdlibProfile(0.02);
  P.Seed = Seed;
  P.UnitsHint = 3;
  auto Sources = generateWorkload(P);

  CompilerContext Comp;
  Comp.options().CheckTrees = true;
  CompileOutput Out = compileProgram(Comp, std::move(Sources),
                                     KindIdx == 0
                                         ? PipelineKind::StandardFused
                                         : PipelineKind::StandardUnfused);
  EXPECT_FALSE(Comp.diags().hasErrors());
  for (const CheckFailure &F : Out.CheckFailures)
    ADD_FAILURE() << "checker: " << F.Message;
  EXPECT_GT(Out.Prog.totalInstructions(), 0u);

  // Dropping the units must free every tree (no leaks, exact refcounts).
  Out.Units.clear();
  EXPECT_EQ(Comp.heap().stats().LiveBytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GeneratedWorkload,
    ::testing::Combine(::testing::Values(1u, 7u, 42u, 1234u, 99999u),
                       ::testing::Values(0, 1)),
    [](const ::testing::TestParamInfo<std::tuple<uint64_t, int>> &Info) {
      return "seed" + std::to_string(std::get<0>(Info.param)) +
             (std::get<1>(Info.param) == 0 ? "_fused" : "_unfused");
    });

TEST(GeneratorDeterminism, SameSeedSameSource) {
  WorkloadProfile P = stdlibProfile(0.02);
  auto A = generateWorkload(P);
  auto B = generateWorkload(P);
  ASSERT_EQ(A.size(), B.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_EQ(A[I].Text, B[I].Text);
}

TEST(GeneratorDeterminism, ProfilesDiffer) {
  auto A = generateWorkload(stdlibProfile(0.02));
  auto B = generateWorkload(dottyProfile(0.02));
  EXPECT_NE(A[0].Text, B[0].Text);
}

TEST(GeneratorScaling, LocTracksTarget) {
  auto Small = generateWorkload(stdlibProfile(0.02));
  auto Large = generateWorkload(stdlibProfile(0.08));
  EXPECT_GT(countLines(Large), countLines(Small) * 2);
}

// A unit target under the generator's 20-line driver allowance yields a
// unit with no classes, not an endless class loop (the target is
// unsigned, so the allowance must not be subtracted from it). Also run
// alone as the GeneratorTinyScaleTerminates ctest, under a timeout.
TEST(GeneratorScaling, TinyScaleTerminates) {
  auto Sources = generateWorkload(stdlibProfile(1e-6));
  ASSERT_FALSE(Sources.empty());
  for (const SourceInput &S : Sources)
    EXPECT_FALSE(S.Text.empty()) << S.FileName;
}

} // namespace
