//===----------------------------------------------------------------------===//
///
/// \file
/// Client side of the compile-service wire protocol: a blocking
/// one-request-at-a-time connection with the fault-tolerance half of the
/// end-to-end story — reconnect on broken connections (including one
/// the server reaped while idle), exponential backoff with deterministic
/// jitter, and RetryAfter hints honored as a floor on the next delay.
/// The retry loop only ever replays *compiles*, which are pure (same
/// sources, same output), so resending after a torn connection cannot
/// double-apply anything.
///
/// The load generator (LoadGen.h) drives many of these, one per worker,
/// to put an open-loop arrival schedule on a server.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_NET_CLIENT_H
#define MPC_NET_CLIENT_H

#include "net/Protocol.h"
#include "net/Socket.h"

#include <cstdint>
#include <string>

namespace mpc {
namespace net {

/// Client tuning knobs.
struct ClientConfig {
  uint16_t Port = 0;
  int ConnectTimeoutMs = 2000;
  /// Bound on any single wait for server bytes (and on writes).
  int IoTimeoutMs = 10000;
  /// Attempts beyond the first before compile() gives up.
  uint32_t MaxRetries = 8;
  /// Exponential backoff: base * 2^attempt, capped, half of it jittered.
  uint32_t BackoffBaseMillis = 5;
  uint32_t BackoffCapMillis = 1000;
  /// Seed of the deterministic jitter (vary per client, e.g. by worker
  /// index, so a fleet doesn't retry in lockstep).
  uint64_t JitterSeed = 1;
  /// Frame caps for the client-side defensive reader.
  Limits Lim;
};

/// Wire-visible life of one client (monotone counters).
struct ClientStats {
  uint64_t RequestsSent = 0;
  uint64_t ResponsesOk = 0;
  uint64_t RetryAfterSeen = 0;
  uint64_t Reconnects = 0;
  uint64_t BackoffSleeps = 0;
  uint64_t TotalBackoffMillis = 0;
  uint64_t GaveUp = 0;
  uint64_t ProtocolErrors = 0;
};

/// What one low-level call() produced.
enum class CallStatus : uint8_t {
  Response,   ///< CompileResponse for our ReqId (in Reply)
  RetryAfter, ///< server refused; RetryHint/RetryReason are set
  Goodbye,    ///< server is draining; connection is done
  ProtoError, ///< server reported a protocol violation and hung up
  Closed,     ///< connection closed under us
  IoError,    ///< timeout or socket error (Error() tells which)
};
const char *callStatusName(CallStatus St);

/// One protocol connection. Not thread-safe: one thread, one client.
class CompileClient {
public:
  explicit CompileClient(ClientConfig Config) : Cfg(Config) {}

  /// Connects and completes the Hello handshake.
  bool connect(std::string &Err);
  bool connected() const { return Sock.valid(); }
  /// Sends Goodbye and closes (best-effort politeness).
  void close();

  /// Sends \p Req and blocks for its answer (matched by ReqId). No
  /// retries — the raw protocol exchange, for tests that assert on
  /// single responses.
  CallStatus call(const WireRequest &Req, WireResponse &Reply);

  /// The fault-tolerant path: call(), and on RetryAfter back off
  /// (honoring the server hint as a floor) and resend; on Closed/IoError
  /// reconnect and resend. Gives up after MaxRetries extra attempts.
  bool compile(const WireRequest &Req, WireResponse &Reply,
               std::string &Err);

  /// Diagnosis of the last IoError/ProtoError.
  const std::string &error() const { return LastErr; }
  /// Last RetryAfter's hint and reason.
  uint64_t retryHintMillis() const { return RetryHint; }
  const std::string &retryReason() const { return RetryReason; }

  const ClientStats &stats() const { return Stats; }

  /// The backoff schedule, exposed for tests: delay before retry
  /// \p Attempt (0-based), with \p HintMillis as the server's floor.
  uint64_t backoffMillis(uint32_t Attempt, uint64_t HintMillis) const;

private:
  /// Blocks until one complete frame arrives. False = LastErr set and
  /// St set to Closed/IoError/ProtoError.
  bool readFrame(Frame &F, CallStatus &St);
  bool sendBytes(const std::vector<uint8_t> &Bytes);

  ClientConfig Cfg;
  Socket Sock;
  FrameReader Reader{Limits()};
  ClientStats Stats;
  std::string LastErr;
  uint64_t RetryHint = 0;
  std::string RetryReason;
  uint64_t NextReqId = 1;
};

} // namespace net
} // namespace mpc

#endif // MPC_NET_CLIENT_H
