//===----------------------------------------------------------------------===//
// Parallel batch-compilation tests: the worker pool must produce results
// identical to serial compilation, in job order, with per-job error
// isolation. Compiler contexts share nothing, so this exercise also
// guards against anyone introducing global mutable state.
//
// A BatchResult carries no trees. The cases that execute programs or read
// check failures compile with compileProgram in contexts they own, on
// several threads at once.
//===----------------------------------------------------------------------===//

#include "backend/Interpreter.h"
#include "driver/Batch.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

using namespace mpc;

namespace {

BatchJob jobFor(const CorpusProgram &P, PipelineKind Kind) {
  BatchJob J;
  J.Sources.push_back({P.Name + ".scala", P.Source});
  J.Kind = Kind;
  J.WantDump = true;
  return J;
}

/// Runs Fn(I) for every I < N on \p Threads threads.
template <typename FnT> void parallelFor(size_t N, unsigned Threads, FnT Fn) {
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&] {
      for (size_t I = Next++; I < N; I = Next++)
        Fn(I);
    });
  for (std::thread &T : Pool)
    T.join();
}

/// What one compile in a caller-owned context observed.
struct OwnedRun {
  bool HadErrors = false;
  size_t CheckFailures = 0;
  size_t Instructions = 0;
  std::string Output; // main's output, or a marker
};

OwnedRun compileAndRun(const BatchJob &J, bool Execute = true) {
  OwnedRun Run;
  CompilerContext Comp(J.Options);
  CompileOutput Out = compileProgram(Comp, J.Sources, J.Kind);
  Run.HadErrors = Comp.diags().hasErrors();
  Run.CheckFailures = Out.CheckFailures.size();
  Run.Instructions = Out.Prog.totalInstructions();
  if (!Execute)
    return Run;
  if (Run.HadErrors || Out.EntryPoints.empty()) {
    Run.Output = "<error>";
    return Run;
  }
  Interpreter I(Comp, Out.Units);
  ExecResult E = I.runMain(Out.EntryPoints.front());
  Run.Output = E.Uncaught ? "<crash: " + E.Error + ">" : E.Output;
  return Run;
}

TEST(BatchCompile, WholeCorpusInParallelMatchesExpectedOutputs) {
  const auto &Corpus = corpusPrograms();
  std::vector<OwnedRun> Runs(Corpus.size());
  parallelFor(Corpus.size(), 4, [&](size_t I) {
    Runs[I] = compileAndRun(jobFor(Corpus[I], PipelineKind::StandardFused));
  });
  for (size_t I = 0; I < Corpus.size(); ++I) {
    EXPECT_FALSE(Runs[I].HadErrors) << Corpus[I].Name;
    EXPECT_EQ(Runs[I].Output, Corpus[I].ExpectedOutput) << Corpus[I].Name;
  }
}

TEST(BatchCompile, ParallelEqualsSerial) {
  auto MakeJobs = []() {
    std::vector<BatchJob> Jobs;
    for (const CorpusProgram &P : corpusPrograms())
      Jobs.push_back(jobFor(P, PipelineKind::StandardUnfused));
    return Jobs;
  };
  std::vector<BatchResult> Serial = compileBatch(MakeJobs(), /*Threads=*/1);
  std::vector<BatchResult> Parallel = compileBatch(MakeJobs(), /*Threads=*/8);
  ASSERT_EQ(Serial.size(), corpusPrograms().size());
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    EXPECT_EQ(Serial[I].Status, JobStatus::Ok) << "job " << I;
    EXPECT_FALSE(Serial[I].DumpText.empty()) << "job " << I;
    EXPECT_EQ(Serial[I].DumpText, Parallel[I].DumpText) << "job " << I;
    EXPECT_EQ(Serial[I].DiagText, Parallel[I].DiagText) << "job " << I;
    EXPECT_EQ(Serial[I].Heap.AllocatedBytes, Parallel[I].Heap.AllocatedBytes)
        << "job " << I;
  }
}

TEST(BatchCompile, ErrorsAreIsolatedPerJob) {
  std::vector<BatchJob> Jobs;
  Jobs.push_back(jobFor(corpusPrograms()[0], PipelineKind::StandardFused));
  BatchJob Bad;
  Bad.Sources.push_back({"bad.scala", "class C { def f(): Int = missing }"});
  Jobs.push_back(std::move(Bad));
  Jobs.push_back(jobFor(corpusPrograms()[1], PipelineKind::StandardFused));

  std::vector<BatchResult> Results = compileBatch(std::move(Jobs), 3);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_FALSE(Results[0].HadErrors);
  EXPECT_TRUE(Results[1].HadErrors);
  EXPECT_NE(Results[1].DiagText.find("not found: missing"),
            std::string::npos);
  EXPECT_FALSE(Results[2].HadErrors);

  // The good jobs' output is what they produce on their own.
  for (size_t I : {0u, 1u}) {
    std::vector<BatchJob> Solo;
    Solo.push_back(jobFor(corpusPrograms()[I], PipelineKind::StandardFused));
    EXPECT_EQ(Results[2 * I].DumpText,
              compileBatch(std::move(Solo), 1).at(0).DumpText)
        << "job " << 2 * I;
  }
}

TEST(BatchCompile, CheckTreesOptionIsHonoredPerJob) {
  BatchJob J = jobFor(corpusPrograms()[0], PipelineKind::StandardFused);
  J.Options.CheckTrees = true;
  OwnedRun Run = compileAndRun(J);
  EXPECT_FALSE(Run.HadErrors);
  EXPECT_EQ(Run.CheckFailures, 0u);
  EXPECT_EQ(Run.Output, corpusPrograms()[0].ExpectedOutput);
}

TEST(BatchCompile, ManyGeneratedWorkloadsInParallel) {
  // A heavier soak: 12 generated code bases across 4 threads, checkers on.
  std::vector<BatchJob> Jobs;
  for (uint64_t Seed = 1; Seed <= 12; ++Seed) {
    WorkloadProfile P = stdlibProfile(0.01);
    P.Seed = Seed;
    P.UnitsHint = 2;
    BatchJob J;
    J.Sources = generateWorkload(P);
    J.Options.CheckTrees = true;
    Jobs.push_back(std::move(J));
  }
  std::vector<OwnedRun> Runs(Jobs.size());
  parallelFor(Jobs.size(), 4, [&](size_t I) {
    Runs[I] = compileAndRun(Jobs[I], /*Execute=*/false);
  });
  for (size_t I = 0; I < Runs.size(); ++I) {
    EXPECT_FALSE(Runs[I].HadErrors) << "job " << I;
    EXPECT_EQ(Runs[I].CheckFailures, 0u) << "job " << I;
    EXPECT_GT(Runs[I].Instructions, 0u) << "job " << I;
  }
  // The same jobs through the batch driver compile cleanly too.
  for (const BatchResult &R : compileBatch(std::move(Jobs), 4))
    EXPECT_EQ(R.Status, JobStatus::Ok) << R.DiagText;
}

} // namespace
