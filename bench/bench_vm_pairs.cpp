//===----------------------------------------------------------------------===//
// Superinstruction selection: links each guest-compute-bound family with
// superinstruction fusion OFF, runs it in the bytecode VM with dynamic
// opcode-pair counting on, and prints the hottest (previous, current)
// pairs. This is the measurement that chose the fusion table in
// Linker.cpp and that justifies LinkOptions::Superinstructions (see README
// "Bytecode VM"). Guest throughput itself is measured by perfbench run-vm.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "backend/Linker.h"
#include "backend/VM.h"

#include <algorithm>
#include <cstdio>
#include <vector>

using namespace mpc;
using namespace mpc::bench;

namespace {

constexpr uint64_t BenchStepLimit = 1ull << 40;

/// Returns false when the family did not compile to a runnable program.
bool measurePairs(Family F, uint64_t Seed, double Scale) {
  CompilerContext Comp;
  CompileOutput Out =
      compileProgram(Comp, generateFamily(F, Seed, Scale),
                     PipelineKind::StandardFused);
  if (Comp.diags().hasErrors() || Out.EntryPoints.empty()) {
    std::printf("[%s] compile failed\n", familyName(F));
    return false;
  }
  LinkOptions LO;
  LO.Superinstructions = false;
  LinkedProgram Linked = linkProgram(Out.Prog, Comp, LO);
  VM M(Comp, Linked, BenchStepLimit);
  M.enablePairCounts();
  M.runMain(Out.EntryPoints.front());

  const std::vector<uint64_t> &Pairs = M.pairCounts();
  const size_t N = static_cast<size_t>(LOp::NumLOps);
  struct PairRow {
    size_t A, B;
    uint64_t Count;
  };
  std::vector<PairRow> Top;
  for (size_t A = 0; A < N; ++A)
    for (size_t B = 0; B < N; ++B)
      if (Pairs[A * N + B] > 0)
        Top.push_back({A, B, Pairs[A * N + B]});
  std::sort(Top.begin(), Top.end(),
            [](const PairRow &X, const PairRow &Y) { return X.Count > Y.Count; });

  std::printf("\n[%s seed %llu: hottest dynamic opcode pairs, fusion off]\n",
              familyName(F), (unsigned long long)Seed);
  for (size_t I = 0; I < std::min<size_t>(Top.size(), 12); ++I)
    std::printf("  %-14s ; %-14s %12llu\n",
                lopName(static_cast<LOp>(Top[I].A)),
                lopName(static_cast<LOp>(Top[I].B)),
                (unsigned long long)Top[I].Count);
  return !Top.empty();
}

} // namespace

int main() {
  printHeader("Bytecode VM — dynamic opcode pairs with fusion off",
              "repo-specific (no paper figure): picks the superinstructions");
  double Scale = benchScale(1.0);
  std::printf("workload scale: %.2f (MPC_BENCH_SCALE to change)\n", Scale);
  bool Ok = true;
  for (Family F : {Family::ClosureHeavy, Family::MegaMethods, Family::Mixed})
    Ok &= measurePairs(F, /*Seed=*/1, Scale);
  return Ok ? 0 : 1;
}
