//===----------------------------------------------------------------------===//
///
/// \file
/// Open-loop load generation against a compile server. Arrivals follow a
/// fixed schedule T_i = T0 + i/RPS that does NOT slow down when the
/// server does — the defining property of open-loop measurement, and the
/// reason it exposes queueing collapse that closed-loop benchmarks hide:
/// latency for request i is measured from its *scheduled* arrival, so
/// time spent waiting behind a backlog counts against the server.
///
/// A pool of worker connections executes the schedule; each worker is a
/// CompileClient with the full retry/backoff stack, so the generator
/// doubles as the end-to-end fault-tolerance driver (NetFaultTest) and
/// as mpc_load_client's latency report.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_NET_LOADGEN_H
#define MPC_NET_LOADGEN_H

#include "net/Client.h"

#include <cstdint>
#include <string>

namespace mpc {
namespace net {

/// One load-generation run.
struct LoadGenConfig {
  uint16_t Port = 0;
  /// Offered arrival rate, requests/second. <= 0 = as fast as the
  /// workers can go (closed-loop; used to find the saturation point).
  double Rps = 0;
  /// Total arrivals in the schedule.
  uint64_t NumRequests = 100;
  /// Worker connections (the concurrency cap; an open-loop run wants
  /// enough that the schedule, not the pool, is the limiter).
  unsigned Connections = 8;
  /// Workload shape: generator seed (varied per request) and scale.
  uint64_t Seed = 1;
  double SourceScale = 0.02;
  /// Distinct job variants in the arrival mix. 1 exercises the server's
  /// artifact cache on every request after the first; larger values
  /// approximate a build fleet's mixed traffic.
  unsigned Variants = 4;
  /// Per-request soft deadline forwarded to the server (0 = none).
  uint64_t DeadlineMillis = 0;
  /// Retry budget per request (see ClientConfig).
  uint32_t MaxRetries = 8;
  int IoTimeoutMs = 30000;
};

/// What the run measured. Latencies in milliseconds.
struct LoadGenReport {
  uint64_t Scheduled = 0;   ///< arrivals in the schedule
  uint64_t Completed = 0;   ///< got a CompileResponse (any status)
  uint64_t Ok = 0;          ///< WireStatus::Ok
  uint64_t Deadline = 0;    ///< WireStatus::DeadlineExceeded
  uint64_t Faulted = 0;     ///< WireStatus::Faulted
  uint64_t GaveUp = 0;      ///< retries exhausted / unrecoverable
  uint64_t Retries = 0;     ///< backoff sleeps across all workers
  uint64_t RetryAfterSeen = 0;
  uint64_t Reconnects = 0;

  /// End-to-end latency from *scheduled* arrival to response.
  double P50Ms = 0, P95Ms = 0, P99Ms = 0, MeanMs = 0, MaxMs = 0;
  /// Server-reported queue wait of the completed requests — the split
  /// that tells queueing delay from compile time.
  double QueueP50Ms = 0, QueueP95Ms = 0, QueueP99Ms = 0;

  double OfferedRps = 0;  ///< what the schedule asked for
  double AchievedRps = 0; ///< completed / wall
  double WallSec = 0;
};

/// Runs one open-loop schedule. Blocking; spawns Cfg.Connections worker
/// threads internally.
LoadGenReport runLoadGen(const LoadGenConfig &Cfg);

/// Renders the report as one human-readable line.
std::string formatReport(const LoadGenReport &R);

} // namespace net
} // namespace mpc

#endif // MPC_NET_LOADGEN_H
