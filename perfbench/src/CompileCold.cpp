//===----------------------------------------------------------------------===//
//
// compile-cold: the batch setting of the paper's Fig. 4. A closed loop on
// one thread; one request constructs a fresh CompilerContext, runs the
// fused standard pipeline over a ~5 kLOC dotty-profile program, and
// destroys the context, so every request maps cold heap pages and loads
// frontend, transforms and codegen. The service, cache, network and VM
// are bypassed.
//
// The traced run replaces compileProgram by the same steps called one
// layer at a time (runFrontEnd, each plan group's runOnUnit in plan
// order, generateCode) so each gets a span, and pairs every traced
// request with an untraced one on the same input (tracing cost) and an
// unfused compile of it (the per-block fused-vs-unfused table).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "driver/Driver.h"
#include "workload/ProgramGenerator.h"

#include <cstdio>
#include <memory>

using namespace mpc;
using namespace perfbench;

namespace {

/// A fixed, seeded set of inputs, cycled: the set is small enough that
/// peak RSS measures the compiler, not the benchmark's own buffers.
constexpr unsigned NumInputs = 8;
/// One size profile only (dotty at 0.1 = ~5 kLOC): mixing profiles would
/// put the median in the gap between two modes.
constexpr double InputScale = 0.1;

struct ColdInput {
  std::vector<SourceInput> Sources;
  uint64_t Lines = 0;
};

struct Outcome {
  Fingerprint Code, Dump;
  bool Clean = false;

  bool operator==(const Outcome &O) const {
    return Code == O.Code && Dump == O.Dump && Clean == O.Clean;
  }
};

std::vector<ColdInput> makeInputs(uint64_t Seed) {
  std::vector<ColdInput> Inputs;
  for (unsigned K = 0; K < NumInputs; ++K) {
    WorkloadProfile P = dottyProfile(InputScale);
    P.Seed = mixSeed(Seed, K);
    ColdInput In;
    In.Sources = generateWorkload(P);
    In.Lines = countLines(In.Sources);
    Inputs.push_back(std::move(In));
  }
  return Inputs;
}

Outcome outcomeOf(const CompileOutput &Out, CompilerContext &Comp) {
  Outcome O;
  O.Clean = !Comp.diags().hasErrors() && Out.PlanErrors.empty() &&
            !Out.Units.empty();
  O.Code = fingerprintProgram(Out.Prog);
  O.Dump = fingerprintUnits(Out.Units);
  return O;
}

/// One untraced request. The output fingerprint is taken between compile
/// and teardown and excluded from the latency.
Outcome coldRequest(const ColdInput &In, PipelineKind Kind, double &Ms) {
  std::vector<SourceInput> Src = In.Sources;
  Clock::time_point T0 = Clock::now();
  auto Comp = std::make_unique<CompilerContext>();
  CompileOutput Out = compileProgram(*Comp, std::move(Src), Kind);
  Clock::time_point T1 = Clock::now();
  Outcome O = outcomeOf(Out, *Comp);
  Clock::time_point T2 = Clock::now();
  Out = CompileOutput();
  Comp.reset();
  Clock::time_point T3 = Clock::now();
  Ms = msBetween(T0, T1) + msBetween(T2, T3);
  return O;
}

/// The plan groups, named by their first phase (Table 2's blocks).
struct GroupInfo {
  std::string Name;
  std::vector<std::string> Phases;
  uint32_t Span = 0, UnfusedSpan = 0;
  std::vector<double> Visited, Hooks, RealAllocs, UnfusedRealAllocs;
};

struct TraceState {
  Tracer T{0};
  uint32_t Request, Unfused, Create, Destroy, Plan, Frontend, Codegen,
      Verify;
  std::vector<GroupInfo> Groups;
  std::vector<double> CodegenInstrs, PagesMapped;

  TraceState() {
    Request = T.nameId("request");
    Unfused = T.nameId("unfused");
    Create = T.nameId("context.create");
    Destroy = T.nameId("context.destroy");
    Plan = T.nameId("plan.build");
    Frontend = T.nameId("frontend");
    Codegen = T.nameId("backend.codegen");
    Verify = T.nameId("harness.verify");
    std::vector<std::string> Errors;
    PhasePlan Ref = makeStandardPlan(/*Fuse=*/true, Errors);
    for (const PhaseGroup &G : Ref.groups()) {
      GroupInfo Info;
      Info.Name = G.Members.front()->name();
      for (const Phase *P : G.Members)
        Info.Phases.push_back(P->name());
      Info.Span = T.nameId("transforms." + Info.Name);
      Info.UnfusedSpan = T.nameId("transforms." + Info.Name + ".unfused");
      Groups.push_back(std::move(Info));
    }
  }
};

/// compileProgram(StandardFused) called one layer at a time, with a span
/// around each call. Mirrors Driver.cpp step for step, so its output must
/// equal the untraced request's byte for byte.
Outcome tracedRequest(const ColdInput &In, TraceState &S, uint32_t Req,
                      double &Ms) {
  Tracer &T = S.T;
  std::vector<SourceInput> Src = In.Sources;
  int32_t Root = T.begin(S.Request, Req);
  std::unique_ptr<CompilerContext> Comp;
  {
    ScopedSpan Sp(&T, S.Create, Req);
    Comp = std::make_unique<CompilerContext>();
  }
  CompileOutput Out;
  auto Plan = std::make_unique<PhasePlan>();
  {
    ScopedSpan Sp(&T, S.Plan, Req);
    Comp->options().FuseMiniphases = true;
    Comp->options().AlwaysCopy = false;
    *Plan = makeStandardPlan(/*Fuse=*/true, Out.PlanErrors);
  }
  {
    ScopedSpan Sp(&T, S.Frontend, Req);
    Out.Units = runFrontEnd(*Comp, std::move(Src));
  }
  const SlabAllocator::Stats &Backend = Comp->heap().backendStats();
  const auto &Groups = Plan->groups();
  for (size_t G = 0; G < Groups.size(); ++G) {
    const PhaseGroup &Group = Groups[G];
    GroupInfo &Info = S.Groups[G];
    uint64_t Allocs0 = Backend.SystemCalls;
    {
      ScopedSpan Sp(&T, Info.Span, Req);
      if (Group.isFused()) {
        for (CompilationUnit &Unit : Out.Units)
          Group.Block->runOnUnit(Unit, *Comp);
      } else {
        for (Phase *P : Group.Members)
          for (CompilationUnit &Unit : Out.Units)
            P->runOnUnit(Unit, *Comp);
      }
    }
    // A fresh plan per request, so the block's counters are this
    // request's own. The Erasure megaphase has no fused block.
    Info.Visited.push_back(
        Group.isFused() ? double(Group.Block->nodesVisited()) : 0);
    Info.Hooks.push_back(
        Group.isFused() ? double(Group.Block->hooksExecuted()) : 0);
    Info.RealAllocs.push_back(double(Backend.SystemCalls - Allocs0));
  }
  {
    ScopedSpan Sp(&T, S.Codegen, Req);
    Out.Prog = generateCode(Out.Units, *Comp);
    if (auto *CEP = findEntryPoints(*Plan)) {
      Out.EntryPoints = CEP->entryPoints();
      Out.Prog.EntryPoints = Out.EntryPoints;
    }
  }
  Plan.reset();
  S.CodegenInstrs.push_back(double(Out.Prog.totalInstructions()));
  S.PagesMapped.push_back(double(Backend.PagesMapped));
  Outcome O;
  int64_t VerifyNs;
  {
    int64_t V0 = Tracer::nowNs();
    ScopedSpan Sp(&T, S.Verify, Req);
    O = outcomeOf(Out, *Comp);
    VerifyNs = Tracer::nowNs() - V0;
  }
  {
    ScopedSpan Sp(&T, S.Destroy, Req);
    Out = CompileOutput();
    Comp.reset();
  }
  T.end(Root);
  const Span &R = T.spans()[size_t(Root)];
  Ms = double(R.EndNs - R.StartNs - VerifyNs) / 1e6;
  return O;
}

/// The unfused companion of a traced request: the same phases, one
/// traversal each, timed per Table 2 block. Not a request; its output is
/// checked against the reference like every other.
Outcome unfusedCompanion(const ColdInput &In, TraceState &S, uint32_t Req) {
  Tracer &T = S.T;
  ScopedSpan Root(&T, S.Unfused, Req);
  auto Comp = std::make_unique<CompilerContext>();
  Comp->options().FuseMiniphases = false;
  Comp->options().AlwaysCopy = false;
  CompileOutput Out;
  PhasePlan Plan = makeStandardPlan(/*Fuse=*/false, Out.PlanErrors);
  Out.Units = runFrontEnd(*Comp, In.Sources);
  const SlabAllocator::Stats &Backend = Comp->heap().backendStats();
  for (GroupInfo &Info : S.Groups) {
    uint64_t Allocs0 = Backend.SystemCalls;
    {
      ScopedSpan Sp(&T, Info.UnfusedSpan, Req);
      for (const std::string &Name : Info.Phases)
        if (Phase *P = Plan.findPhase(Name))
          for (CompilationUnit &Unit : Out.Units)
            P->runOnUnit(Unit, *Comp);
    }
    Info.UnfusedRealAllocs.push_back(double(Backend.SystemCalls - Allocs0));
  }
  Out.Prog = generateCode(Out.Units, *Comp);
  if (auto *CEP = findEntryPoints(Plan)) {
    Out.EntryPoints = CEP->entryPoints();
    Out.Prog.EntryPoints = Out.EntryPoints;
  }
  return outcomeOf(Out, *Comp);
}

double medianOf(const std::map<uint32_t, double> &PerReq) {
  std::vector<double> V;
  for (const auto &KV : PerReq)
    V.push_back(KV.second);
  return median(V);
}

void reportLayers(TraceState &S, WorkloadResult &R) {
  const std::vector<Span> &Spans = S.T.spans();
  auto SpanP50 = [&](uint32_t Id) { return medianOf(perRequestMs(Spans, Id)); };
  R.Layers["context.create_ms"] = SpanP50(S.Create);
  R.Layers["context.destroy_ms"] = SpanP50(S.Destroy);
  R.Layers["frontend.ms"] = SpanP50(S.Frontend);
  R.Layers["backend.codegen.ms"] = SpanP50(S.Codegen);
  R.Layers["backend.codegen.instrs"] = median(S.CodegenInstrs);
  R.Layers["heap.pages_mapped"] = median(S.PagesMapped);

  std::printf("\nPer-block fused vs unfused (Table 2 blocks, p50 per "
              "request over %zu traced requests):\n",
              S.CodegenInstrs.size());
  std::printf("  %-20s %10s %12s %8s %12s %12s %12s %14s\n", "block",
              "fused ms", "unfused ms", "ratio", "nodes", "hooks",
              "real allocs", "unfused allocs");
  for (GroupInfo &G : S.Groups) {
    std::string P = "transforms." + G.Name;
    double Fused = SpanP50(G.Span), Unfused = SpanP50(G.UnfusedSpan);
    R.Layers[P + ".ms"] = Fused;
    R.Layers[P + ".unfused_ms"] = Unfused;
    R.Layers[P + ".nodes_visited"] = median(G.Visited);
    R.Layers[P + ".hooks"] = median(G.Hooks);
    R.Layers[P + ".real_allocs"] = median(G.RealAllocs);
    std::printf("  %-20s %10.3f %12.3f %7.2fx %12.0f %12.0f %12.0f %14.0f\n",
                G.Name.c_str(), Fused, Unfused,
                Fused > 0 ? Unfused / Fused : 0.0, median(G.Visited),
                median(G.Hooks), median(G.RealAllocs),
                median(G.UnfusedRealAllocs));
  }
}

} // namespace

WorkloadResult perfbench::runCompileCold(const RunConfig &Cfg) {
  WorkloadResult R;
  std::vector<ColdInput> Inputs;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point S0 = Clock::now();
    Inputs = makeInputs(Cfg.Seed);
    // Warm-up, discarded: one pass over the input set faults in the
    // allocator's arenas and the code pages before timing starts.
    for (const ColdInput &In : Inputs) {
      double Ms;
      coldRequest(In, PipelineKind::StandardFused, Ms);
    }
    R.SetupSec.push_back(secBetween(S0, Clock::now()));
  }
  uint64_t TotalLines = 0;
  for (const ColdInput &In : Inputs)
    TotalLines += In.Lines;
  std::printf("compile-cold: %u inputs, %llu lines (%.0f per input)\n",
              NumInputs, (unsigned long long)TotalLines,
              double(TotalLines) / NumInputs);

  std::unique_ptr<TraceState> TS;
  if (Cfg.Trace)
    TS = std::make_unique<TraceState>();

  struct Done {
    unsigned Input;
    bool Traced;
    Outcome O;
  };
  std::vector<Done> Outcomes;
  std::vector<Outcome> UnfusedOutcomes;
  std::vector<unsigned> UnfusedInputs;
  std::vector<double> TracedMs, UntracedMs;
  Clock::time_point W0 = Clock::now();
  Clock::time_point End =
      W0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Cfg.Seconds));
  for (uint64_t I = 0; Clock::now() < End; ++I) {
    unsigned K = static_cast<unsigned>(I % NumInputs);
    const ColdInput &In = Inputs[K];
    if (!TS) {
      double Ms;
      Outcome O = coldRequest(In, PipelineKind::StandardFused, Ms);
      R.Requests.push_back({Ms, double(In.Lines), true});
      Outcomes.push_back({K, false, O});
      continue;
    }
    // Traced run: a traced and an untraced request on the same input, in
    // alternating order, then the unfused companion.
    uint32_t Req = static_cast<uint32_t>(I);
    for (int Leg = 0; Leg < 2; ++Leg) {
      bool Traced = (Leg == 0) == (I % 2 == 0);
      double Ms;
      Outcome O = Traced ? tracedRequest(In, *TS, Req, Ms)
                         : coldRequest(In, PipelineKind::StandardFused, Ms);
      (Traced ? TracedMs : UntracedMs).push_back(Ms);
      R.Requests.push_back({Ms, double(In.Lines), true});
      Outcomes.push_back({K, Traced, O});
    }
    UnfusedOutcomes.push_back(unfusedCompanion(In, *TS, Req));
    UnfusedInputs.push_back(K);
  }
  R.PeakRssMb = peakRssMb();
  R.Throughput = closedLoopThroughput(R.Requests);

  // Correctness, after the timed window: every output's bytecode and dump
  // fingerprint equals that of an unfused compile of the same program.
  std::vector<Outcome> Reference;
  for (const ColdInput &In : Inputs) {
    double Ms;
    Reference.push_back(coldRequest(In, PipelineKind::StandardUnfused, Ms));
    if (!Reference.back().Clean)
      R.ChecksOk = false;
  }
  size_t Mismatches = 0, TracedMismatches = 0;
  for (size_t I = 0; I < Outcomes.size(); ++I)
    if (!(Outcomes[I].O == Reference[Outcomes[I].Input])) {
      R.Requests[I].Ok = false;
      ++Mismatches;
      TracedMismatches += Outcomes[I].Traced;
    }
  for (size_t I = 0; I < UnfusedOutcomes.size(); ++I)
    if (!(UnfusedOutcomes[I] == Reference[UnfusedInputs[I]]))
      R.ChecksOk = false;
  std::printf("compile-cold check: %zu outputs vs unfused reference, "
              "%zu mismatches (%zu traced)\n",
              Outcomes.size(), Mismatches, TracedMismatches);

  if (TS) {
    reportLayers(*TS, R);
    reportTraceSummary({&TS->T}, "request",
                       overheadPct(TracedMs, UntracedMs), R);
    if (!writeTrace(Cfg, "compile-cold", {&TS->T}))
      R.ChecksOk = false;
  }
  return R;
}
