//===----------------------------------------------------------------------===//
// Guest-execution engines head to head: the definitional tree-walking
// interpreter vs the direct-threaded bytecode VM, on the closure-heavy
// and mega-methods stress families (the two guest-compute-bound shapes).
// Reports instructions/sec for both engines — each engine's own step
// count over its own wall time — the wall-time ratio on identical
// programs, and the VM's dispatch/inline-cache counter breakdown.
//
// `bench_interp --pairs` additionally links with superinstruction fusion
// OFF and prints the hottest dynamic opcode pairs: the measurement that
// chose the fusion table in Linker.cpp (see README "Bytecode VM").
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "backend/Interpreter.h"
#include "backend/Linker.h"
#include "backend/VM.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace mpc;
using namespace mpc::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct EngineSample {
  double StepsPerSec = 0;
  double Sec = 0;
  uint64_t Steps = 0;
};

constexpr uint64_t BenchStepLimit = 1ull << 40;

EngineSample timeTreeWalk(CompilerContext &Comp, const CompileOutput &Out,
                          unsigned Inner) {
  EngineSample S;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Inner; ++I) {
    Interpreter Interp(Comp, Out.Units, BenchStepLimit);
    ExecResult R = Interp.runMain(Out.EntryPoints.front());
    S.Steps += R.StepsExecuted;
  }
  S.Sec = secondsSince(T0);
  S.StepsPerSec = double(S.Steps) / (S.Sec > 0 ? S.Sec : 1e-9);
  return S;
}

EngineSample timeVM(VM &M, Symbol *Entry, unsigned Inner) {
  EngineSample S;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I < Inner; ++I) {
    ExecResult R = M.runMain(Entry);
    S.Steps += R.StepsExecuted;
  }
  S.Sec = secondsSince(T0);
  S.StepsPerSec = double(S.Steps) / (S.Sec > 0 ? S.Sec : 1e-9);
  return S;
}

std::string humanRate(double PerSec) {
  char Buf[64];
  if (PerSec >= 1e9)
    std::snprintf(Buf, sizeof(Buf), "%.2fG", PerSec / 1e9);
  else if (PerSec >= 1e6)
    std::snprintf(Buf, sizeof(Buf), "%.1fM", PerSec / 1e6);
  else
    std::snprintf(Buf, sizeof(Buf), "%.0fk", PerSec / 1e3);
  return Buf;
}

/// Prints the VM's per-run counter breakdown (the stats flushed by the
/// last runMain) and records it in the JSON trail.
void dumpCounters(CompilerContext &Comp, const std::string &Tag) {
  StatsRegistry &Stats = Comp.stats();
  struct Row {
    std::string Key;
    uint64_t N;
  };
  std::vector<Row> Dispatch;
  for (const auto &[Key, N] : Stats.all())
    if (Key.rfind("backend.vm.dispatch.", 0) == 0 && N > 0)
      Dispatch.push_back({Key.substr(std::strlen("backend.vm.dispatch.")), N});
  std::sort(Dispatch.begin(), Dispatch.end(),
            [](const Row &A, const Row &B) { return A.N > B.N; });

  uint64_t Steps = Stats.get("backend.vm.steps");
  std::printf("  VM counter breakdown (%llu dispatches):\n",
              (unsigned long long)Steps);
  size_t Show = std::min<size_t>(Dispatch.size(), 10);
  for (size_t I = 0; I < Show; ++I) {
    std::printf("    %-16s %12llu  (%.1f%%)\n", Dispatch[I].Key.c_str(),
                (unsigned long long)Dispatch[I].N,
                100.0 * double(Dispatch[I].N) / double(Steps ? Steps : 1));
    jsonMetric("interp_" + Tag, "dispatch_" + Dispatch[I].Key,
               double(Dispatch[I].N));
  }
  uint64_t CallHits = Stats.get("backend.vm.ic.call.hits");
  uint64_t CallMiss = Stats.get("backend.vm.ic.call.misses");
  uint64_t FieldHits = Stats.get("backend.vm.ic.field.hits");
  uint64_t FieldMiss = Stats.get("backend.vm.ic.field.misses");
  auto Pct = [](uint64_t H, uint64_t M) {
    return H + M ? 100.0 * double(H) / double(H + M) : 0.0;
  };
  std::printf("    call IC   %12llu hits / %llu misses (%.2f%% hit)\n",
              (unsigned long long)CallHits, (unsigned long long)CallMiss,
              Pct(CallHits, CallMiss));
  std::printf("    field IC  %12llu hits / %llu misses (%.2f%% hit)\n",
              (unsigned long long)FieldHits, (unsigned long long)FieldMiss,
              Pct(FieldHits, FieldMiss));
  jsonMetric("interp_" + Tag, "ic_call_hit_pct", Pct(CallHits, CallMiss));
  jsonMetric("interp_" + Tag, "ic_field_hit_pct", Pct(FieldHits, FieldMiss));
}

/// The --pairs measurement: fusion off, count dynamic opcode pairs, print
/// the top table (what justified the superinstruction set).
void measurePairs(Family F, uint64_t Seed, double Scale) {
  CompilerContext Comp;
  CompileOutput Out =
      compileProgram(Comp, generateFamily(F, Seed, Scale),
                     PipelineKind::StandardFused);
  if (Comp.diags().hasErrors() || Out.EntryPoints.empty())
    return;
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
}

void runFamily(Family F, uint64_t Seed, double Scale, unsigned Reps) {
  CompilerContext Comp;
  CompileOutput Out =
      compileProgram(Comp, generateFamily(F, Seed, Scale),
                     PipelineKind::StandardFused);
  if (Comp.diags().hasErrors() || Out.EntryPoints.empty()) {
    std::printf("[%s] compile failed, skipping\n", familyName(F));
    return;
  }

  // Calibrate: enough inner runs that one sample covers >= ~4M guest
  // steps, so per-run setup amortizes and the CV is meaningful.
  Interpreter Cal(Comp, Out.Units, BenchStepLimit);
  uint64_t CalSteps = Cal.runMain(Out.EntryPoints.front()).StepsExecuted;
  unsigned Inner = 1;
  while (Inner < 8192 && CalSteps * Inner < 4'000'000)
    Inner *= 2;

  LinkedProgram Linked = linkProgram(Out.Prog, Comp, {});
  VM M(Comp, Linked, BenchStepLimit);

  // Warmup: fills inline caches, threads the code, touches the stacks,
  // so the timed reps measure steady state for both engines.
  timeTreeWalk(Comp, Out, 1);
  timeVM(M, Out.EntryPoints.front(), 1);

  std::vector<double> TwRate, VmRate, VmEff, TwSec, VmSec;
  uint64_t TwSteps = 0, VmSteps = 0;
  for (unsigned Rep = 0; Rep < Reps; ++Rep) {
    EngineSample Tw = timeTreeWalk(Comp, Out, Inner);
    EngineSample Bv = timeVM(M, Out.EntryPoints.front(), Inner);
    TwRate.push_back(Tw.StepsPerSec);
    VmRate.push_back(Bv.StepsPerSec);
    // Effective rate: the oracle's instruction stream is the work unit
    // for BOTH engines (superinstruction fusion shrinks the VM's own
    // dispatch count for identical guest work, so raw dispatches/sec
    // would understate the VM exactly when fusion works best).
    VmEff.push_back(double(Tw.Steps) / (Bv.Sec > 0 ? Bv.Sec : 1e-9));
    TwSec.push_back(Tw.Sec);
    VmSec.push_back(Bv.Sec);
    TwSteps = Tw.Steps;
    VmSteps = Bv.Steps;
  }

  SampleStats TwR = meanCv(TwRate), VmR = meanCv(VmRate);
  SampleStats EffR = meanCv(VmEff);
  SampleStats TwT = meanCv(TwSec), VmT = meanCv(VmSec);
  double RateRatio = EffR.Mean / (TwR.Mean > 0 ? TwR.Mean : 1e-9);
  double TimeRatio = TwT.Mean / (VmT.Mean > 0 ? VmT.Mean : 1e-9);

  std::printf("\n[%s seed %llu: %u inner x %u reps]\n", familyName(F),
              (unsigned long long)Seed, Inner, Reps);
  std::printf("  %-22s %12s steps  %10s/s ±%.1f%%\n", "tree-walker",
              std::to_string((unsigned long long)TwSteps).c_str(),
              humanRate(TwR.Mean).c_str(), TwR.CvPct);
  std::printf("  %-22s %12s disp.  %10s/s ±%.1f%%  (%s oracle-instr/s)\n",
              "bytecode VM",
              std::to_string((unsigned long long)VmSteps).c_str(),
              humanRate(VmR.Mean).c_str(), VmR.CvPct,
              humanRate(EffR.Mean).c_str());
  std::printf("  instructions/sec ratio: %.2fx   wall-time ratio: %.2fx\n",
              RateRatio, TimeRatio);

  std::string Tag = familyName(F);
  jsonMetric("interp_" + Tag, "treewalk_steps_per_sec", TwR.Mean);
  jsonMetric("interp_" + Tag, "vm_dispatches_per_sec", VmR.Mean);
  jsonMetric("interp_" + Tag, "vm_effective_steps_per_sec", EffR.Mean);
  jsonMetric("interp_" + Tag, "rate_ratio", RateRatio);
  jsonMetric("interp_" + Tag, "walltime_ratio", TimeRatio);
  dumpCounters(Comp, Tag);
}

} // namespace

int main(int Argc, char **Argv) {
  bool PairsMode = Argc > 1 && std::string(Argv[1]) == "--pairs";
  printHeader("Guest execution — tree-walker vs direct-threaded bytecode VM",
              "VM >= 5x instructions/sec on guest-compute-bound families");
  double Scale = benchScale(1.0);
  unsigned Reps = benchReps();
  std::printf("workload scale: %.2f, repetitions: %u "
              "(MPC_BENCH_SCALE / MPC_BENCH_REPS to change)\n",
              Scale, Reps);
  std::printf("dispatch: direct-threaded (computed goto)\n");

  const Family Families[] = {Family::ClosureHeavy, Family::MegaMethods,
                             Family::Mixed};
  for (Family F : Families)
    runFamily(F, /*Seed=*/1, Scale, Reps);

  if (PairsMode)
    for (Family F : Families)
      measurePairs(F, /*Seed=*/1, Scale);
  return 0;
}
