//===----------------------------------------------------------------------===//
// Service latency under open-loop load: tail latencies of the networked
// compile server as a function of offered request rate.
//
// Closed-loop benchmarks (bench_service_throughput) measure capacity but
// hide queueing: a closed-loop client slows down with the server, so the
// backlog never grows. This bench drives the wire server with an
// open-loop schedule — arrivals at T_i = T0 + i/RPS regardless of how
// the server is doing, latency measured from the *scheduled* arrival —
// which is what exposes the p99 knee as offered load approaches
// capacity.
//
// Protocol: a closed-loop probe finds the saturation throughput, then
// open-loop sweeps at fixed fractions of it report p50/p95/p99 alongside
// the server-reported queue-wait split (queueing delay vs compile time).
// MPC_BENCH_SCALE shrinks the per-request workload for CI.
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "net/LoadGen.h"
#include "net/Server.h"

#include <cstdio>
#include <cstdlib>

using namespace mpc;
using namespace mpc::bench;
using namespace mpc::net;

namespace {

unsigned benchThreads() {
  if (const char *Env = std::getenv("MPC_BENCH_THREADS"))
    return static_cast<unsigned>(std::atoi(Env));
  return 0; // hardware concurrency
}

LoadGenConfig baseLoad(uint16_t Port, double Scale, uint64_t NumRequests) {
  LoadGenConfig LG;
  LG.Port = Port;
  LG.NumRequests = NumRequests;
  LG.Connections = 8;
  LG.Seed = 1;
  LG.SourceScale = Scale;
  LG.Variants = 4;
  LG.MaxRetries = 16;
  return LG;
}

void printRow(const char *Label, const LoadGenReport &R) {
  std::printf("  %-14s offered %7.1f rps, achieved %7.1f rps | "
              "p50 %7.1f  p95 %7.1f  p99 %7.1f ms | "
              "queue p50 %6.1f  p99 %6.1f ms | retries %llu\n",
              Label, R.OfferedRps, R.AchievedRps, R.P50Ms, R.P95Ms, R.P99Ms,
              R.QueueP50Ms, R.QueueP99Ms, (unsigned long long)R.Retries);
}

void emitRow(const std::string &Key, const LoadGenReport &R) {
  jsonMetric("service_latency", Key + "_offered_rps", R.OfferedRps);
  jsonMetric("service_latency", Key + "_achieved_rps", R.AchievedRps);
  jsonMetric("service_latency", Key + "_p50_ms", R.P50Ms);
  jsonMetric("service_latency", Key + "_p95_ms", R.P95Ms);
  jsonMetric("service_latency", Key + "_p99_ms", R.P99Ms);
  jsonMetric("service_latency", Key + "_queue_p50_ms", R.QueueP50Ms);
  jsonMetric("service_latency", Key + "_queue_p99_ms", R.QueueP99Ms);
  jsonMetric("service_latency", Key + "_completed", double(R.Completed));
  jsonMetric("service_latency", Key + "_retries", double(R.Retries));
}

} // namespace

int main() {
  printHeader("Service latency — open-loop RPS sweep against the wire server",
              "repo-specific service benchmark (no paper figure)");
  double Scale = benchScale(0.02);
  uint64_t NumRequests = 48;
  if (const char *Env = std::getenv("MPC_BENCH_REQUESTS"))
    NumRequests = static_cast<uint64_t>(std::atoll(Env));
  std::printf("workload scale: %.3f, requests per point: %llu\n", Scale,
              (unsigned long long)NumRequests);

  ServerConfig Cfg;
  Cfg.Service.Threads = benchThreads();
  // Admission control on: overload answers RetryAfter instead of growing
  // an unbounded queue, so the sweep measures the configured service,
  // not an idealized infinite buffer.
  Cfg.Service.MaxQueueDepth = 64;
  CompileServer Server(std::move(Cfg));
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "server start failed: %s\n", Err.c_str());
    return 1;
  }

  // Warm-up: fill the context pool and the artifact-relevant caches so
  // the probe measures steady state.
  {
    LoadGenConfig Warm = baseLoad(Server.port(), Scale, 8);
    runLoadGen(Warm);
  }

  // Closed-loop probe: as fast as 8 connections can go = the saturation
  // throughput the open-loop fractions are anchored to.
  LoadGenConfig Probe = baseLoad(Server.port(), Scale, NumRequests);
  Probe.Rps = 0;
  LoadGenReport Saturation = runLoadGen(Probe);
  if (Saturation.Completed == 0) {
    std::fprintf(stderr, "saturation probe completed no requests\n");
    return 1;
  }
  std::printf("\nclosed-loop saturation: %.1f rps "
              "(p50 %.1f ms, p99 %.1f ms)\n\n",
              Saturation.AchievedRps, Saturation.P50Ms, Saturation.P99Ms);
  jsonMetric("service_latency", "saturation_rps", Saturation.AchievedRps);
  jsonMetric("service_latency", "saturation_p50_ms", Saturation.P50Ms);
  jsonMetric("service_latency", "saturation_p99_ms", Saturation.P99Ms);

  // Open-loop sweep at fractions of saturation: tails stay flat while
  // the server has headroom, then the queue-wait share blows up the p99
  // as offered load crosses capacity (1.2x is deliberately past it).
  struct Point {
    const char *Label;
    const char *Key;
    double Fraction;
  };
  const Point Sweep[] = {
      {"0.3x capacity", "load30", 0.3},
      {"0.6x capacity", "load60", 0.6},
      {"0.9x capacity", "load90", 0.9},
      {"1.2x capacity", "load120", 1.2},
  };
  for (const Point &P : Sweep) {
    LoadGenConfig LG = baseLoad(Server.port(), Scale, NumRequests);
    LG.Rps = Saturation.AchievedRps * P.Fraction;
    if (LG.Rps <= 0)
      LG.Rps = 1;
    LoadGenReport R = runLoadGen(LG);
    printRow(P.Label, R);
    emitRow(P.Key, R);
  }

  Server.requestDrain();
  Server.waitDrained();
  return 0;
}
