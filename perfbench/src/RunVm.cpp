//===----------------------------------------------------------------------===//
//
// run-vm: run time of generated code. A fixed set of valid-family
// programs plus the hand-written Corpus programs is compiled during
// set-up. One request links a program (which verifies it), constructs a
// VM, and calls runMain until a fixed guest budget is spent, so every
// request takes milliseconds. The budget is counted in oracle
// (tree-walker) instructions, not VM dispatches, so a superinstruction
// change cannot redefine the unit of work. Frontend, transforms, service
// and network are bypassed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "backend/Interpreter.h"
#include "backend/Linker.h"
#include "backend/VM.h"
#include "driver/Driver.h"
#include "workload/Corpus.h"
#include "workload/ProgramGenerator.h"

#include <cstdio>
#include <memory>

using namespace mpc;
using namespace perfbench;

namespace {

/// Guest work per request, in oracle instructions: 5 to 40 ms of VM time
/// per request on a 4-core x86-64 KVM guest. The tree-walker replays
/// every request's call sequence in the check, so the budget also bounds
/// the check's time.
constexpr uint64_t GuestBudget = 1'500'000;
/// Valid families: the compute-bound shapes the VM was tuned on plus
/// the wide and inheritance-heavy ones.
constexpr Family VmFamilies[] = {Family::Mixed, Family::DeepInheritance,
                                 Family::ClosureHeavy, Family::MegaMethods,
                                 Family::ManyTinyUnits};
/// Five programs per family. With the 12 Corpus programs that makes 37,
/// an odd count: requests go round the programs, so the median is one
/// program's own latency, not the midpoint between two programs whose
/// latencies may lie far apart. Many programs put many latencies near
/// the median, so it moves smoothly with the host's speed.
constexpr unsigned SeedsPerFamily = 5;
constexpr double FamilyScale = 1.0;
constexpr uint64_t StepLimit = 50'000'000;

struct VmProgram {
  std::string Name;
  std::unique_ptr<CompilerContext> Comp;
  CompileOutput Out;
  Symbol *Entry = nullptr;
  /// The tree-walker's results for the same sequence of runMain calls
  /// a request makes (module state persists across calls in both
  /// engines), folded into one fingerprint, and their summed step count:
  /// the request's work in oracle instructions.
  ExecResult FirstOracle;
  Fingerprint OracleFP;
  uint64_t OracleSteps = 0;
  uint64_t Reps = 1;
  /// Hand-written expected output (Corpus programs only).
  const std::string *Expected = nullptr;
};

Fingerprint fingerprintExec(const ExecResult &E) {
  Fingerprint FP = fingerprintString(E.Output);
  FP = fingerprintString(E.Error, FP);
  return combine(FP, fingerprintUInt(E.Uncaught ? 1 : 0));
}

/// Compiles \p Sources and calibrates the request's run count from one
/// tree-walker run.
bool compileInto(VmProgram &P, std::vector<SourceInput> Sources) {
  P.Comp = std::make_unique<CompilerContext>();
  P.Out = compileProgram(*P.Comp, std::move(Sources),
                         PipelineKind::StandardFused);
  if (P.Comp->diags().hasErrors() || P.Out.EntryPoints.empty())
    return false;
  P.Entry = P.Out.EntryPoints.front();
  Interpreter Oracle(*P.Comp, P.Out.Units, StepLimit);
  P.FirstOracle = Oracle.runMain(P.Entry);
  P.Reps = vmRepsFor(GuestBudget, P.FirstOracle.StepsExecuted);
  return true;
}

/// The reference a request is checked against: the tree-walker making
/// the same sequence of runMain calls on one interpreter.
void computeOracle(VmProgram &P) {
  Interpreter Oracle(*P.Comp, P.Out.Units, StepLimit);
  P.OracleFP = Fingerprint();
  P.OracleSteps = 0;
  for (uint64_t R = 0; R < P.Reps; ++R) {
    ExecResult E = Oracle.runMain(P.Entry);
    P.OracleFP = combine(P.OracleFP, fingerprintExec(E));
    P.OracleSteps += E.StepsExecuted;
  }
}

std::vector<VmProgram> makePrograms(uint64_t Seed, bool &Ok) {
  std::vector<VmProgram> Ps;
  Ok = true;
  uint64_t Stream = 0;
  for (Family F : VmFamilies)
    for (unsigned S = 0; S < SeedsPerFamily; ++S) {
      VmProgram P;
      P.Name = familyName(F);
      Ok &= compileInto(P, generateFamily(F, mixSeed(Seed, Stream++),
                                          FamilyScale));
      Ps.push_back(std::move(P));
    }
  for (const CorpusProgram &C : corpusPrograms()) {
    VmProgram P;
    P.Name = C.Name;
    P.Expected = &C.ExpectedOutput;
    Ok &= compileInto(P, {{C.Name + ".scala", C.Source}});
    Ps.push_back(std::move(P));
  }
  return Ps;
}

struct VmCounters {
  uint64_t Steps, CallHits, CallMisses, FieldHits, FieldMisses, Frames,
      Objects, Arrays;

  static VmCounters read(const StatsRegistry &S) {
    return {S.get("backend.vm.steps"),          S.get("backend.vm.ic.call.hits"),
            S.get("backend.vm.ic.call.misses"), S.get("backend.vm.ic.field.hits"),
            S.get("backend.vm.ic.field.misses"), S.get("backend.vm.frames"),
            S.get("backend.vm.alloc.objects"),   S.get("backend.vm.alloc.arrays")};
  }
};

struct TraceState {
  Tracer T{0};
  uint32_t Request = T.nameId("request");
  uint32_t Link = T.nameId("backend.link");
  uint32_t Init = T.nameId("backend.vm.init");
  uint32_t Run = T.nameId("backend.vm.run");
  uint32_t Verify = T.nameId("harness.verify");
  uint32_t Destroy = T.nameId("backend.vm.destroy");
  /// VM dispatches per traced request, divided by the program's oracle
  /// work once the oracle has run.
  std::vector<std::pair<const VmProgram *, double>> Dispatches;
  std::vector<double> CallHit, FieldHit, Frames, Objects, Arrays;
};

/// Run results are collected in chunks of this many and fingerprinted
/// between chunks, so the harness's buffer stays bounded.
constexpr uint64_t ResultChunk = 1024;

/// One request. The fingerprinting between chunks of runs is excluded
/// from the latency. \p S is null for untraced requests.
Fingerprint vmRequest(VmProgram &P, TraceState *S, uint32_t Req,
                      double &Ms) {
  Tracer *T = S ? &S->T : nullptr;
  VmCounters C0 = VmCounters::read(P.Comp->stats());
  std::vector<ExecResult> Results;
  Results.reserve(std::min(P.Reps, ResultChunk));
  int32_t Root = T ? T->begin(S->Request, Req) : -1;
  Clock::time_point T0 = Clock::now();
  std::unique_ptr<LinkedProgram> Linked;
  {
    ScopedSpan Sp(T, S ? S->Link : 0, Req);
    Linked = std::make_unique<LinkedProgram>(
        linkProgram(P.Out.Prog, *P.Comp, LinkOptions()));
  }
  std::unique_ptr<VM> M;
  {
    ScopedSpan Sp(T, S ? S->Init : 0, Req);
    M = std::make_unique<VM>(*P.Comp, *Linked, StepLimit);
  }
  double HarnessMs = 0;
  Fingerprint FP;
  for (uint64_t Done = 0; Done < P.Reps;) {
    uint64_t N = std::min(ResultChunk, P.Reps - Done);
    {
      ScopedSpan Sp(T, S ? S->Run : 0, Req);
      for (uint64_t R = 0; R < N; ++R)
        Results.push_back(M->runMain(P.Entry));
    }
    Clock::time_point V0 = Clock::now();
    {
      ScopedSpan Sp(T, S ? S->Verify : 0, Req);
      for (const ExecResult &E : Results)
        FP = combine(FP, fingerprintExec(E));
      Results.clear();
    }
    HarnessMs += msBetween(V0, Clock::now());
    Done += N;
  }
  {
    ScopedSpan Sp(T, S ? S->Destroy : 0, Req);
    M.reset();
    Linked.reset();
  }
  Clock::time_point T1 = Clock::now();
  if (T)
    T->end(Root);
  Ms = msBetween(T0, T1) - HarnessMs;

  if (S) {
    VmCounters C1 = VmCounters::read(P.Comp->stats());
    auto Ratio = [](uint64_t Hits, uint64_t Misses) {
      return Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
    };
    S->Dispatches.push_back({&P, double(C1.Steps - C0.Steps)});
    S->CallHit.push_back(
        Ratio(C1.CallHits - C0.CallHits, C1.CallMisses - C0.CallMisses));
    S->FieldHit.push_back(Ratio(C1.FieldHits - C0.FieldHits,
                                C1.FieldMisses - C0.FieldMisses));
    S->Frames.push_back(double(C1.Frames - C0.Frames));
    S->Objects.push_back(double(C1.Objects - C0.Objects));
    S->Arrays.push_back(double(C1.Arrays - C0.Arrays));
  }
  return FP;
}

} // namespace

WorkloadResult perfbench::runRunVm(const RunConfig &Cfg) {
  WorkloadResult R;
  std::vector<VmProgram> Programs;
  bool CompiledOk = true;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point S0 = Clock::now();
    Programs.clear();
    Programs = makePrograms(Cfg.Seed, CompiledOk);
    if (!CompiledOk)
      break;
    // Warm-up, discarded: one request per program.
    for (VmProgram &P : Programs) {
      double Ms;
      vmRequest(P, nullptr, 0, Ms);
    }
    R.SetupSec.push_back(secBetween(S0, Clock::now()));
  }
  if (!CompiledOk) {
    std::printf("run-vm: a set-up program failed to compile\n");
    R.ChecksOk = false;
    R.SetupSec.push_back(0);
    R.Requests.push_back({0, 0, false});
    return R;
  }
  uint64_t MinReps = ~0ull, MaxReps = 0;
  for (const VmProgram &P : Programs) {
    MinReps = std::min(MinReps, P.Reps);
    MaxReps = std::max(MaxReps, P.Reps);
  }
  std::printf("run-vm: %zu programs, budget %llu oracle instructions per "
              "request (%llu..%llu runs per request)\n",
              Programs.size(), (unsigned long long)GuestBudget,
              (unsigned long long)MinReps, (unsigned long long)MaxReps);

  std::unique_ptr<TraceState> TS;
  if (Cfg.Trace)
    TS = std::make_unique<TraceState>();
  struct Done {
    size_t Program;
    bool Traced;
    Fingerprint FP;
  };
  std::vector<Done> Outcomes;
  std::vector<double> TracedMs, UntracedMs;
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Cfg.Seconds));
  for (uint64_t I = 0; Clock::now() < End; ++I) {
    // Traced runs interleave traced and untraced requests: the untraced
    // ones are the baseline of the tracing-cost figure. Program order
    // goes round the set once per traced/untraced pair.
    size_t K = static_cast<size_t>((TS ? I / 2 : I) % Programs.size());
    VmProgram &P = Programs[K];
    bool Traced = TS && (I % 2 == 0) == ((I / 2) % 2 == 0);
    double Ms;
    Fingerprint FP =
        vmRequest(P, Traced ? TS.get() : nullptr, static_cast<uint32_t>(I),
                  Ms);
    if (TS)
      (Traced ? TracedMs : UntracedMs).push_back(Ms);
    R.Requests.push_back({Ms, 0, true});
    Outcomes.push_back({K, Traced, FP});
  }
  R.PeakRssMb = peakRssMb();

  // Correctness, after the timed window: every VM run equals the
  // tree-walker's result for the same call sequence, and every Corpus
  // program's output equals its hand-written expected output. The
  // tree-walker's step count is also the requests' unit of work.
  for (VmProgram &P : Programs)
    computeOracle(P);
  for (size_t I = 0; I < Outcomes.size(); ++I)
    R.Requests[I].Work = double(Programs[Outcomes[I].Program].OracleSteps);
  R.Throughput = closedLoopThroughput(R.Requests);
  for (const VmProgram &P : Programs)
    if (P.Expected &&
        (P.FirstOracle.Uncaught || P.FirstOracle.Output != *P.Expected)) {
      std::printf("run-vm: %s differs from its expected output\n",
                  P.Name.c_str());
      R.ChecksOk = false;
    }
  size_t Mismatches = 0, TracedMismatches = 0;
  for (size_t I = 0; I < Outcomes.size(); ++I)
    if (Outcomes[I].FP != Programs[Outcomes[I].Program].OracleFP) {
      std::printf("run-vm: %s differs from the tree-walker\n",
                  Programs[Outcomes[I].Program].Name.c_str());
      R.Requests[I].Ok = false;
      ++Mismatches;
      TracedMismatches += Outcomes[I].Traced;
    }
  // One row per program: how much of the run's time and tail each
  // program accounts for.
  std::vector<std::vector<double>> PerProgram(Programs.size());
  for (size_t I = 0; I < Outcomes.size(); ++I)
    PerProgram[Outcomes[I].Program].push_back(R.Requests[I].LatencyMs);
  std::printf("  %-28s %8s %14s %10s\n", "program", "runs", "oracle instrs",
              "p50 ms");
  for (size_t K = 0; K < Programs.size(); ++K)
    std::printf("  %-28s %8llu %14llu %10.3f\n", Programs[K].Name.c_str(),
                (unsigned long long)Programs[K].Reps,
                (unsigned long long)Programs[K].OracleSteps,
                median(PerProgram[K]));
  std::printf("run-vm check: %zu requests vs tree-walker, %zu mismatches "
              "(%zu traced); corpus expected outputs %s\n",
              Outcomes.size(), Mismatches, TracedMismatches,
              R.ChecksOk ? "match" : "DIFFER");

  if (TS) {
    const std::vector<Span> &Spans = TS->T.spans();
    auto SpanP50 = [&](uint32_t Id) {
      std::vector<double> V;
      for (const auto &KV : perRequestMs(Spans, Id))
        V.push_back(KV.second);
      return median(V);
    };
    R.Layers["backend.link.ms"] = SpanP50(TS->Link);
    R.Layers["backend.vm.init_ms"] = SpanP50(TS->Init);
    R.Layers["backend.vm.run_ms"] = SpanP50(TS->Run);
    std::vector<double> PerInstr;
    for (const auto &[P, Dispatches] : TS->Dispatches)
      PerInstr.push_back(Dispatches / double(std::max<uint64_t>(1, P->OracleSteps)));
    R.Layers["backend.vm.dispatches_per_instr"] = median(PerInstr);
    R.Layers["backend.vm.ic.call.hit_ratio"] = median(TS->CallHit);
    R.Layers["backend.vm.ic.field.hit_ratio"] = median(TS->FieldHit);
    R.Layers["backend.vm.frames"] = median(TS->Frames);
    R.Layers["backend.vm.alloc.objects"] = median(TS->Objects);
    R.Layers["backend.vm.alloc.arrays"] = median(TS->Arrays);
    reportTraceSummary({&TS->T}, "request",
                       overheadPct(TracedMs, UntracedMs), R);
    if (!writeTrace(Cfg, "run-vm", {&TS->T}))
      R.ChecksOk = false;
  }
  return R;
}
