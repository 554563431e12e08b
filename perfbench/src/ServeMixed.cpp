//===----------------------------------------------------------------------===//
//
// serve-mixed: a synthetic server mix. An in-process CompileServer
// on loopback (2 service workers, warm contexts, shared PagePool and
// ArtifactCache, all defaults) is driven as an open loop at a fixed
// absolute rate from at most 2 CompileClient connections. Latency is
// timed from each request's scheduled send time.
//
// The mix: unique valid-family programs, unique adversarial-family
// programs (half-typed code that exercises parser recovery and the
// typer's error paths), and exact repeats of recent requests (cache
// hits). The shares and the repeat distance are assumptions, not taken
// from a measured trace: they are chosen so that repeats stay a
// minority and the median stays inside the miss mode. Every request sets
// WantDump so responses compare byte for byte with a cold in-process
// compile. Linker and VM are bypassed.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "driver/Batch.h"
#include "net/Client.h"
#include "net/Server.h"
#include "workload/ProgramGenerator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

using namespace mpc;
using namespace mpc::net;
using namespace perfbench;

namespace {

/// The offered load, fixed in absolute terms so both sides of a
/// comparison see the same schedule (a rate derived from measured
/// capacity would move with the program under test). At 25/s a 34 s run
/// has 850 arrivals, so the printed tail is p95 (42 samples beyond).
constexpr double RequestsPerSec = 25;
/// A request is useful work only if answered within this limit. It sits
/// near the p95 measured on the reference host in busy hours (6.4-10.7
/// ms; p50 about 2.4 ms). Up to 6% of requests missed it, so a slower
/// compile path loses throughput instead of the figure only echoing the
/// offered load.
constexpr double LatencyLimitMs = 10;
/// Service workers and client connections: 2 + 2 stays within the
/// 4 cores of the reference host, so no compile thread waits for a core.
constexpr unsigned MaxWorkers = 2;
constexpr unsigned MaxConnections = 2;
/// Bounded base pools; a request's sources are a base program with
/// request-unique file names, so the cache sees a new key while the
/// benchmark holds only the pool in memory. The pool is large enough
/// that the few programs one seed draws do not decide the figures.
constexpr unsigned ValidPool = 160;
constexpr unsigned AdversarialPool = 48;
/// Mix, in percent of arrivals (an assumption, not a measured trace):
/// repeats stay well below one half so the median stays inside the miss
/// mode.
constexpr unsigned RepeatPct = 20;
constexpr unsigned AdversarialPct = 20;
/// A repeat copies a request 8..23 arrivals back: far enough that the
/// original has completed, so it is a cache hit. The distance is an
/// assumption too.
constexpr unsigned RepeatMinBack = 8, RepeatSpan = 16;
constexpr unsigned WarmupRequests = 256;
constexpr double FamilyScale = 1.0;

constexpr Family ValidFamilies[] = {Family::Mixed, Family::DeepInheritance,
                                    Family::ClosureHeavy, Family::MegaMethods,
                                    Family::ManyTinyUnits};
constexpr Family AdversarialFamilies[] = {
    Family::Truncated, Family::TokenMutation, Family::UnbalancedDelims,
    Family::TypeErrorSeeded};

enum class Kind : uint8_t { Valid, Adversarial, Repeat };

struct Arrival {
  Kind K = Kind::Valid;
  /// Index into the base pool (valid pool first, then adversarial).
  uint32_t Base = 0;
  /// The request id whose sources this arrival sends (its own id unless
  /// it is a repeat).
  uint32_t ContentId = 0;
};

std::vector<std::vector<SourceInput>> makePool(uint64_t Seed) {
  std::vector<std::vector<SourceInput>> Pool;
  for (unsigned I = 0; I < ValidPool; ++I)
    Pool.push_back(generateFamily(ValidFamilies[I % std::size(ValidFamilies)],
                                  mixSeed(Seed, 100 + I), FamilyScale));
  for (unsigned I = 0; I < AdversarialPool; ++I)
    Pool.push_back(generateFamily(
        AdversarialFamilies[I % std::size(AdversarialFamilies)],
        mixSeed(Seed, 200 + I), FamilyScale));
  return Pool;
}

/// The schedule. Its composition is the same for every seed: each block
/// of ten arrivals holds 2 repeats, 2 adversarial and 6 valid requests
/// in a seeded order, and valid and adversarial requests take their
/// families in turn. The seed picks the order, the programs and the
/// repeat distances. With the composition fixed, the figures do not move
/// with how many repeats or large programs a seed happens to draw.
std::vector<Arrival> makeSchedule(uint64_t Seed, size_t N) {
  static_assert(RepeatPct % 10 == 0 && AdversarialPct % 10 == 0);
  constexpr unsigned Block = 10;
  constexpr unsigned Repeats = RepeatPct / Block,
                     Adversarials = AdversarialPct / Block;
  constexpr unsigned NumValid = std::size(ValidFamilies),
                     NumAdversarial = std::size(AdversarialFamilies);
  static_assert(ValidPool % NumValid == 0 &&
                AdversarialPool % NumAdversarial == 0);
  std::vector<Arrival> S(N);
  uint64_t Rng = mixSeed(Seed, 300);
  auto Next = [&Rng] {
    Rng = mixSeed(Rng, 1);
    return Rng;
  };
  std::vector<Kind> Order(Block, Kind::Valid);
  unsigned ValidTurn = 0, AdversarialTurn = 0;
  for (size_t I = 0; I < N; ++I) {
    if (I % Block == 0) {
      std::fill(Order.begin(), Order.end(), Kind::Valid);
      std::fill_n(Order.begin(), Repeats, Kind::Repeat);
      std::fill_n(Order.begin() + Repeats, Adversarials, Kind::Adversarial);
      for (unsigned J = Block - 1; J > 0; --J)
        std::swap(Order[J], Order[Next() % (J + 1)]);
    }
    Arrival &A = S[I];
    A.K = Order[I % Block];
    // The first arrivals have nothing old enough to repeat.
    if (A.K == Kind::Repeat && I < RepeatMinBack + RepeatSpan)
      A.K = Kind::Valid;
    if (A.K == Kind::Repeat) {
      const Arrival &Orig = S[I - RepeatMinBack - Next() % RepeatSpan];
      A.Base = Orig.Base;
      A.ContentId = Orig.ContentId;
      continue;
    }
    A.ContentId = static_cast<uint32_t>(I);
    // Pool entry b holds family b % (number of families).
    if (A.K == Kind::Adversarial)
      A.Base = ValidPool + AdversarialTurn++ % NumAdversarial +
               NumAdversarial * static_cast<uint32_t>(
                                    Next() % (AdversarialPool / NumAdversarial));
    else
      A.Base = ValidTurn++ % NumValid +
               NumValid * static_cast<uint32_t>(Next() % (ValidPool / NumValid));
  }
  return S;
}

/// The sources a request sends: its base program under file names unique
/// to its content id.
std::vector<SourceInput>
sourcesFor(const std::vector<std::vector<SourceInput>> &Pool,
           const char *Prefix, uint32_t Base, uint32_t ContentId) {
  std::vector<SourceInput> Src = Pool[Base];
  std::string Tag = Prefix + std::to_string(ContentId) + "_";
  for (SourceInput &S : Src)
    S.FileName = Tag + S.FileName;
  return Src;
}

Fingerprint fingerprintReply(WireStatus St, bool HadErrors,
                             const std::string &Diag,
                             const std::string &Dump) {
  Fingerprint FP = fingerprintUInt(static_cast<uint64_t>(St));
  FP = combine(FP, fingerprintUInt(HadErrors ? 1 : 0));
  FP = fingerprintString(Diag, FP);
  return fingerprintString(Dump, FP);
}

/// What a connection thread records about one arrival: times, the
/// server-reported stage split and a fingerprint of the reply (the reply
/// texts themselves are dropped, so memory stays bounded).
struct Completion {
  OpenLoopTimes Times;
  bool Answered = false;
  WireStatus Status = WireStatus::Ok;
  uint64_t QueueWaitMicros = 0, FrontendMicros = 0, TransformMicros = 0,
           BackendMicros = 0;
  /// Traced runs: time spent writing this arrival's spans.
  int64_t TraceWriteNs = 0;
  Fingerprint FP;
};

struct ServerHandle {
  std::unique_ptr<CompileServer> Server;
  std::vector<std::unique_ptr<CompileClient>> Clients;
};

bool startServer(unsigned Workers, unsigned Conns, ServerHandle &H) {
  ServerConfig SC;
  SC.Service.Threads = Workers;
  H.Server = std::make_unique<CompileServer>(std::move(SC));
  std::string Err;
  if (!H.Server->start(Err)) {
    std::printf("serve-mixed: server start failed: %s\n", Err.c_str());
    return false;
  }
  for (unsigned C = 0; C < Conns; ++C) {
    ClientConfig CC;
    CC.Port = H.Server->port();
    CC.JitterSeed = C + 1;
    auto Client = std::make_unique<CompileClient>(CC);
    if (!Client->connect(Err)) {
      std::printf("serve-mixed: connect failed: %s\n", Err.c_str());
      return false;
    }
    H.Clients.push_back(std::move(Client));
  }
  return true;
}

void stopServer(ServerHandle &H) {
  for (auto &C : H.Clients)
    C->close();
  H.Clients.clear();
  if (H.Server) {
    H.Server->requestDrain();
    H.Server->waitDrained();
    H.Server.reset();
  }
}

/// Discarded warm-up: each connection sends closed-loop requests so every
/// worker has a warm context, the page pool holds pages, and the code is
/// paged in.
void warmUp(ServerHandle &H, const std::vector<std::vector<SourceInput>> &Pool) {
  std::vector<std::thread> Ts;
  for (size_t C = 0; C < H.Clients.size(); ++C)
    Ts.emplace_back([&, C] {
      for (unsigned I = static_cast<unsigned>(C); I < WarmupRequests;
           I += static_cast<unsigned>(H.Clients.size())) {
        WireRequest Req;
        Req.WantDump = true;
        Req.Sources = sourcesFor(
            Pool, "w", static_cast<uint32_t>((I * 2) % Pool.size()), I);
        WireResponse Reply;
        std::string Err;
        H.Clients[C]->compile(Req, Reply, Err);
      }
    });
  for (std::thread &T : Ts)
    T.join();
}

struct ServiceSnapshot {
  uint64_t Hits, Misses, Reused, PagesShared, BusyMicros, Trimmed, Peak;
  ServerStats Wire;

  static ServiceSnapshot take(CompileServer &S) {
    StatsRegistry &R = S.service().stats();
    S.service().drain(); // merges the worker sheaves; all work is done
    return {R.get("service.cacheHits"),   R.get("service.cacheMisses"),
            R.get("service.contextsReused"), R.get("service.pagesShared"),
            R.get("service.busyMicros"),  R.get("heap.pagesTrimmed"),
            R.get("service.queueDepthPeak"), S.snapshot()};
  }
};

} // namespace

WorkloadResult perfbench::runServeMixed(const RunConfig &Cfg) {
  WorkloadResult R;
  const unsigned Workers = std::max(1u, std::min(MaxWorkers, Cfg.Nproc / 2));
  const unsigned Conns = std::max(1u, std::min(MaxConnections, Cfg.Nproc / 2));
  const size_t N = static_cast<size_t>(RequestsPerSec * Cfg.Seconds);

  std::vector<std::vector<SourceInput>> Pool;
  std::vector<Arrival> Schedule;
  ServerHandle H;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    stopServer(H);
    Clock::time_point S0 = Clock::now();
    Pool = makePool(Cfg.Seed);
    Schedule = makeSchedule(Cfg.Seed, N);
    if (!startServer(Workers, Conns, H)) {
      stopServer(H);
      R.ChecksOk = false;
      R.SetupSec.push_back(0);
      R.Requests.push_back({0, 0, false});
      return R;
    }
    warmUp(H, Pool);
    R.SetupSec.push_back(secBetween(S0, Clock::now()));
  }
  size_t Repeats = 0, Adversarial = 0;
  for (const Arrival &A : Schedule) {
    Repeats += A.K == Kind::Repeat;
    Adversarial += A.K == Kind::Adversarial;
  }
  std::printf("serve-mixed: %zu arrivals at %.0f/s over %u connections, "
              "%u workers; %zu repeats, %zu adversarial, limit %.0f ms\n",
              N, RequestsPerSec, Conns, Workers, Repeats, Adversarial,
              LatencyLimitMs);

  ServiceSnapshot Before = ServiceSnapshot::take(*H.Server);
  std::vector<ClientStats> ClientBefore;
  for (auto &C : H.Clients)
    ClientBefore.push_back(C->stats());

  // The open loop: arrival i is due at T0 + i/rate whatever the server
  // does; each connection takes the next arrival, builds it, sleeps
  // until it is due and sends it. With every connection busy the send
  // runs late, and that lag is charged to the request's latency.
  std::vector<Completion> Done(N);
  std::vector<std::unique_ptr<Tracer>> Tracers;
  for (unsigned C = 0; C < Conns; ++C)
    Tracers.push_back(Cfg.Trace ? std::make_unique<Tracer>(C) : nullptr);
  std::atomic<size_t> NextArrival{0};
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < Conns; ++C)
    Threads.emplace_back([&, C] {
      CompileClient &Client = *H.Clients[C];
      Tracer *T = Tracers[C].get();
      uint32_t ReqName = T ? T->nameId("request") : 0;
      uint32_t LagName = T ? T->nameId("loadgen.lag") : 0;
      uint32_t CallName = T ? T->nameId("net.call") : 0;
      uint32_t VerifyName = T ? T->nameId("harness.verify") : 0;
      for (size_t I; (I = NextArrival.fetch_add(1)) < N;) {
        const Arrival &A = Schedule[I];
        WireRequest Req;
        Req.WantDump = true;
        Req.Sources = sourcesFor(Pool, "r", A.Base, A.ContentId);
        Completion &Out = Done[I];
        Out.Times.Scheduled = scheduledAt(T0, I, RequestsPerSec);
        std::this_thread::sleep_until(Out.Times.Scheduled);
        Out.Times.Sent = Clock::now();
        WireResponse Reply;
        std::string Err;
        Out.Answered = Client.compile(Req, Reply, Err);
        Out.Times.Done = Clock::now();
        int64_t V0 = Tracer::nowNs();
        Out.FP = fingerprintReply(Reply.Status, Reply.HadErrors,
                                  Reply.DiagText, Reply.DumpText);
        Out.Status = Reply.Status;
        Out.QueueWaitMicros = Reply.QueueWaitMicros;
        Out.FrontendMicros = Reply.FrontendMicros;
        Out.TransformMicros = Reply.TransformMicros;
        Out.BackendMicros = Reply.BackendMicros;
        if (T) {
          // The spans are laid down after the fact from the recorded
          // times, so tracing adds nothing inside the request's latency;
          // its cost is the time spent writing them, which delays the
          // connection's next send.
          uint32_t Id = static_cast<uint32_t>(I);
          int64_t S = Tracer::toNs(Out.Times.Scheduled);
          int64_t Sent = Tracer::toNs(Out.Times.Sent);
          int64_t D = Tracer::toNs(Out.Times.Done);
          int64_t V1 = Tracer::nowNs();
          int32_t Root = T->add(ReqName, S, V1, -1, Id);
          if (Sent > S)
            T->add(LagName, S, Sent, Root, Id);
          T->add(CallName, Sent, D, Root, Id);
          T->add(VerifyName, V0, V1, Root, Id);
          Out.TraceWriteNs = Tracer::nowNs() - V1;
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  Clock::time_point WEnd = Clock::now();
  R.PeakRssMb = peakRssMb();
  ServiceSnapshot After = ServiceSnapshot::take(*H.Server);
  std::vector<ClientStats> ClientAfter;
  for (auto &C : H.Clients)
    ClientAfter.push_back(C->stats());
  stopServer(H);

  for (size_t I = 0; I < N; ++I) {
    const Completion &C = Done[I];
    bool Ok = C.Answered && C.Status == WireStatus::Ok;
    R.Requests.push_back({openLoopLatencyMs(C.Times), 1.0, Ok});
  }

  // Correctness, after the timed window: each response's status,
  // diagnostics and dump equal a cold in-process compile of the same
  // sources (warm = cold, cached = compiled). One reference per distinct
  // content, compiled in batches on every core now that the server is
  // gone.
  std::vector<Fingerprint> Reference(N);
  std::vector<uint32_t> Contents;
  for (size_t I = 0; I < N; ++I)
    if (Schedule[I].ContentId == I)
      Contents.push_back(static_cast<uint32_t>(I));
  const size_t Chunk = 32;
  for (size_t Lo = 0; Lo < Contents.size(); Lo += Chunk) {
    size_t Hi = std::min(Contents.size(), Lo + Chunk);
    std::vector<BatchJob> Jobs;
    for (size_t J = Lo; J < Hi; ++J) {
      BatchJob Job;
      Job.WantDump = true;
      const Arrival &A = Schedule[Contents[J]];
      Job.Sources = sourcesFor(Pool, "r", A.Base, A.ContentId);
      Jobs.push_back(std::move(Job));
    }
    std::vector<BatchResult> Results =
        compileBatch(std::move(Jobs), std::max(1u, Cfg.Nproc));
    for (size_t J = Lo; J < Hi; ++J) {
      const BatchResult &B = Results[J - Lo];
      WireStatus St = B.Status == JobStatus::Ok ? WireStatus::Ok
                      : B.Status == JobStatus::DeadlineExceeded
                          ? WireStatus::DeadlineExceeded
                          : WireStatus::Faulted;
      Reference[Contents[J]] =
          fingerprintReply(St, B.HadErrors, B.DiagText, B.DumpText);
    }
  }
  size_t Mismatches = 0;
  std::vector<double> HitMs, MissMs, QueueMs, FrontMs, TransMs, BackMs,
      WireMs, LagMs, LatMs, TraceWriteMs;
  for (size_t I = 0; I < N; ++I) {
    const Completion &C = Done[I];
    if (C.FP != Reference[Schedule[I].ContentId]) {
      R.Requests[I].Ok = false;
      ++Mismatches;
    }
    double Lat = R.Requests[I].LatencyMs;
    LatMs.push_back(Lat);
    LagMs.push_back(lagMs(C.Times));
    QueueMs.push_back(double(C.QueueWaitMicros) / 1e3);
    TraceWriteMs.push_back(double(C.TraceWriteNs) / 1e6);
    if (Schedule[I].K == Kind::Repeat) {
      HitMs.push_back(Lat);
      continue;
    }
    // Misses only: a replayed hit carries the original compile's stage
    // times, so round trip minus stages would not be wire time.
    MissMs.push_back(Lat);
    double Stages = double(C.QueueWaitMicros + C.FrontendMicros +
                           C.TransformMicros + C.BackendMicros) /
                    1e3;
    FrontMs.push_back(double(C.FrontendMicros) / 1e3);
    TransMs.push_back(double(C.TransformMicros) / 1e3);
    BackMs.push_back(double(C.BackendMicros) / 1e3);
    WireMs.push_back(msBetween(C.Times.Sent, C.Times.Done) - Stages);
  }
  double WallSec = secBetween(T0, WEnd);
  R.Throughput = openLoopThroughput(R.Requests, LatencyLimitMs, WallSec);
  std::printf("serve-mixed check: %zu responses%s vs cold compile, %zu "
              "mismatches; %zu distinct contents\n",
              N, Cfg.Trace ? " (all traced)" : "", Mismatches,
              Contents.size());

  if (Cfg.Trace) {
    auto Delta = [](uint64_t A, uint64_t B) { return double(B - A); };
    double Hits = Delta(Before.Hits, After.Hits);
    double Misses = Delta(Before.Misses, After.Misses);
    std::sort(QueueMs.begin(), QueueMs.end());
    std::sort(LagMs.begin(), LagMs.end());
    R.Layers["serve.queue_wait_ms"] = percentileSorted(QueueMs, 50);
    R.Layers["serve.queue_wait_p99_ms"] = percentileSorted(QueueMs, 99);
    R.Layers["service.worker_utilization_pct"] =
        100.0 * Delta(Before.BusyMicros, After.BusyMicros) / 1e6 /
        (WallSec * Workers);
    R.Layers["service.queue_depth_peak"] = double(After.Peak);
    R.Layers["serve.frontend_ms"] = median(FrontMs);
    R.Layers["serve.transform_ms"] = median(TransMs);
    R.Layers["serve.backend_ms"] = median(BackMs);
    R.Layers["serve.wire_ms"] = median(WireMs);
    uint64_t Sent = After.Wire.ResponsesSent - Before.Wire.ResponsesSent;
    R.Layers["net.bytes_per_response"] =
        Sent ? Delta(Before.Wire.BytesWritten, After.Wire.BytesWritten) /
                   double(Sent)
             : 0;
    R.Layers["serve.hit_ms"] = median(HitMs);
    R.Layers["serve.miss_ms"] = median(MissMs);
    R.Layers["cache.hit_ratio"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
    R.Layers["service.contexts_reused_ratio"] =
        Misses > 0 ? Delta(Before.Reused, After.Reused) / Misses : 0;
    R.Layers["heap.pages_shared"] = Delta(Before.PagesShared, After.PagesShared);
    R.Layers["heap.pages_trimmed"] = Delta(Before.Trimmed, After.Trimmed);
    R.Layers["loadgen.lag_ms"] = percentileSorted(LagMs, 99);
    double Retries = 0, RetryAfter = 0;
    for (size_t C = 0; C < ClientAfter.size(); ++C) {
      Retries += Delta(ClientBefore[C].BackoffSleeps + ClientBefore[C].Reconnects,
                       ClientAfter[C].BackoffSleeps + ClientAfter[C].Reconnects);
      RetryAfter += Delta(ClientBefore[C].RetryAfterSeen,
                          ClientAfter[C].RetryAfterSeen);
    }
    R.Layers["net.retries"] = Retries;
    R.Layers["net.retry_after"] = RetryAfter;
    std::vector<const Tracer *> Ts;
    for (auto &T : Tracers)
      Ts.push_back(T.get());
    // Every arrival is traced; the cost is the span writes against the
    // p50 request latency.
    double P50 = median(LatMs);
    reportTraceSummary(Ts, "request",
                       P50 > 0 ? 100.0 * median(TraceWriteMs) / P50 : 0, R);
    if (!writeTrace(Cfg, "serve-mixed", Ts))
      R.ChecksOk = false;
  }
  return R;
}
