//===----------------------------------------------------------------------===//
///
/// \file
/// The networked compile server: CompileService behind a socket, built
/// so that *everything a hostile network can do is an accounted-for
/// outcome*, never a crash and never a wedged worker.
///
/// Architecture (one CompileServer):
///
///   accept thread ──► per-connection reader threads ──► tryEnqueue()
///                                                           │
///   OnResult callback (worker threads) ◄────────────────────┘
///        │ looks up (jobId → connection, reqId)
///        └─► serializes CompileResponse / RetryAfter, writes under the
///            connection's write lock with a bounded timeout
///
/// Robustness contracts:
///
///   - Defensive framing: the FrameReader's caps and typed errors mean a
///     torn frame, oversized header, or unknown msgType yields one
///     ProtocolError frame and a closed connection — the service and all
///     other connections keep running.
///   - Per-connection lifecycle: reads are polled with a timeout, idle
///     connections (no traffic, nothing in flight) are reaped, and a
///     connection may hold at most MaxInFlightPerConn jobs — beyond
///     that, and whenever the service's admission control refuses a job,
///     the client receives an explicit RetryAfter with a delay hint.
///   - Slow clients: response writes use a bounded poll; a peer that
///     stops reading is dropped (slowClientDrops), freeing the worker.
///   - Mid-job disconnects: jobs of a dead connection still complete;
///     their results are dropped and counted (orphanedResults).
///   - Graceful drain: requestDrain() stops accepting, answers every
///     admitted job (results or RetryAfter for late arrivals), sends
///     Goodbye on every surviving connection, and only then tears down —
///     riding CompileService::stop()'s drain guarantee. SIGTERM in the
///     mpc_served binary maps to exactly this, then exit 0.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_NET_SERVER_H
#define MPC_NET_SERVER_H

#include "driver/CompileService.h"
#include "net/Protocol.h"
#include "net/Socket.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

namespace mpc {
namespace net {

/// Server tuning knobs.
struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read back via port()).
  uint16_t Port = 0;
  /// The wrapped compile service. OnResult must stay unset (the server
  /// installs its own).
  ServiceConfig Service;
  /// Wire-format caps handed to every connection's FrameReader.
  Limits Lim;
  /// Jobs one connection may have admitted-but-unanswered. Above this
  /// the server answers RetryAfter without consulting the service.
  uint32_t MaxInFlightPerConn = 8;
  /// Reader poll granularity (also bounds drain-notice latency).
  int PollMs = 50;
  /// Slow-client guard: max time one response write may stall.
  int WriteTimeoutMs = 2000;
  /// Connections with no traffic and nothing in flight for this long
  /// are closed. 0 disables reaping.
  int IdleTimeoutMs = 30000;
  /// Delay hint carried in RetryAfter responses.
  uint32_t RetryAfterMillis = 50;
};

/// Monotone wire-level counters (atomics; read with snapshot()).
struct ServerStats {
  uint64_t ConnectionsAccepted = 0;
  uint64_t ConnectionsClosed = 0;
  uint64_t FramesRead = 0;
  uint64_t RequestsAdmitted = 0;
  uint64_t ResponsesSent = 0;
  uint64_t RetryAfterSent = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t IdleReaped = 0;
  uint64_t SlowClientDrops = 0;
  uint64_t OrphanedResults = 0;
  uint64_t BytesRead = 0;
  uint64_t BytesWritten = 0;
};

/// The long-lived server. start() spins up the listener; requestDrain()
/// (or destruction) runs the graceful shutdown.
class CompileServer {
public:
  explicit CompileServer(ServerConfig Config);
  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;
  /// requestDrain() + waitDrained().
  ~CompileServer();

  /// Binds and starts accepting. False + \p Err on failure (e.g. port
  /// in use). Call once.
  bool start(std::string &Err);

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }

  /// Begins the graceful drain (idempotent, non-blocking): stop
  /// accepting, refuse new requests with RetryAfter, answer everything
  /// admitted, Goodbye + close every connection, join all threads.
  void requestDrain();

  /// Blocks until the drain started by requestDrain() has finished.
  void waitDrained();

  bool draining() const { return Draining.load(std::memory_order_acquire); }

  /// Wire counters snapshot. Thread-safe.
  ServerStats snapshot() const;

  /// The wrapped service (e.g. for its StatsRegistry after a drain).
  CompileService &service() { return *Service; }

  /// Live connections (tests: idle-reap / drain assertions).
  size_t liveConnections() const;

private:
  struct Connection {
    uint64_t ConnId = 0;
    Socket Sock;
    std::mutex WriteM;
    std::atomic<uint32_t> InFlight{0};
    std::atomic<bool> Dead{false};
    std::atomic<bool> SawHello{false};
  };

  struct PendingJob {
    std::shared_ptr<Connection> Conn;
    uint64_t ReqId = 0;
  };

  void acceptLoop();
  void drainMain();
  void connectionLoop(std::shared_ptr<Connection> Conn);
  /// Bookkeeping a detached reader runs as its very last act (a reader
  /// cannot join itself; drain waits on the count instead).
  void readerExit();
  /// Dispatches one decoded frame. False = close the connection.
  bool handleFrame(const std::shared_ptr<Connection> &Conn, const Frame &F);
  void handleRequest(const std::shared_ptr<Connection> &Conn,
                     WireRequest Req);
  /// The service's OnResult hook: routes \p R to the owning connection.
  void deliverResult(uint64_t JobId, BatchResult R);
  /// Turns one finished BatchResult into its wire answer: RetryAfter for
  /// JobStatus::Rejected, CompileResponse for everything else.
  void respond(const std::shared_ptr<Connection> &Conn, uint64_t ReqId,
               BatchResult &R);
  /// Serializes + writes one frame under the connection's write lock;
  /// marks the connection dead on failure. Returns write success.
  bool writeFrame(const std::shared_ptr<Connection> &Conn,
                  const std::vector<uint8_t> &Bytes);
  void sendRetryAfter(const std::shared_ptr<Connection> &Conn,
                      uint64_t ReqId, const char *Reason);
  void sendProtocolError(const std::shared_ptr<Connection> &Conn,
                         ProtoErrCode Code, const std::string &Detail);
  void dropConnectionEntry(uint64_t ConnId);

  ServerConfig Cfg;
  std::unique_ptr<CompileService> Service;
  Socket Listener;
  uint16_t BoundPort = 0;
  Socket WakeRead, WakeWrite; // self-pipe (socketpair) to wake accept poll

  std::atomic<bool> Draining{false};
  std::atomic<bool> Started{false};
  std::mutex DrainM;
  std::condition_variable DrainCv;
  bool DrainDone = false;

  mutable std::mutex ConnsM;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> Conns;
  uint64_t NextConnId = 1;

  std::mutex PendingM;
  std::unordered_map<uint64_t, PendingJob> Pending;
  /// Results that completed before tryEnqueue() returned their job id to
  /// the admitting thread (the callback can outrun the admitter).
  std::unordered_map<uint64_t, std::unique_ptr<BatchResult>> Unclaimed;

  struct AtomicStats {
    std::atomic<uint64_t> ConnectionsAccepted{0}, ConnectionsClosed{0},
        FramesRead{0}, RequestsAdmitted{0}, ResponsesSent{0},
        RetryAfterSent{0}, ProtocolErrors{0}, IdleReaped{0},
        SlowClientDrops{0}, OrphanedResults{0}, BytesRead{0},
        BytesWritten{0};
  };
  AtomicStats S;

  /// Live detached reader threads. Drain (and only drain) waits for this
  /// to hit zero after shutting every socket down.
  std::mutex ReadersM;
  std::condition_variable ReadersCv;
  size_t ActiveReaders = 0;

  std::thread Acceptor;
  std::thread Drainer;
};

} // namespace net
} // namespace mpc

#endif // MPC_NET_SERVER_H
