//===----------------------------------------------------------------------===//
///
/// \file
/// The networked compile server: CompileService behind a socket, built
/// so that *everything a hostile network can do is an accounted-for
/// outcome*, never a crash and never a wedged worker.
///
/// Architecture: one reactor thread owns the listener, every connection
/// and a wake socket, and waits on them with poll. It is the only thread
/// that reads, decodes, calls tryEnqueue(), writes or closes:
///
///   readable  ─► FrameReader ─► tryEnqueue() ─► Pending[job] = (conn, req)
///   OnResult  ─► inbox (the server's one lock) + wake byte      [workers]
///   each pass ─► inbox ─► Pending ─► encode ─► connection's outbound queue
///   writable  ─► flush the queue, without blocking
///
/// Robustness contracts:
///
///   - Defensive framing: a torn frame, oversized header or unknown
///     msgType yields one ProtocolError frame and a closed connection.
///   - Fixed threads: clients cannot add threads. If accept() runs out of
///     fds, the listener leaves the poll set until a connection closes
///     (or a short back-off passes) instead of spinning.
///   - Per-connection lifecycle: idle connections are reaped (a client
///     reconnects for its next request); beyond MaxInFlightPerConn jobs,
///     and whenever admission control refuses a job, the client gets an
///     explicit RetryAfter with a delay hint.
///   - Slow clients: workers never touch a socket. A connection with
///     unflushed output is not read from, and one whose output makes no
///     progress for WriteTimeoutMs is dropped (slowClientDrops).
///   - Mid-job disconnects: the job still completes; its result is
///     dropped and counted (orphanedResults).
///   - Graceful drain: stop accepting, answer every admitted job (late
///     arrivals get RetryAfter), stop the service, then Goodbye and close
///     every connection, all flushed under one WriteTimeoutMs deadline.
///     SIGTERM in the mpc_served binary maps to exactly this, then exit 0.
///
//===----------------------------------------------------------------------===//

#ifndef MPC_NET_SERVER_H
#define MPC_NET_SERVER_H

#include "driver/CompileService.h"
#include "net/Protocol.h"
#include "net/Socket.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace mpc {
namespace net {

/// Server tuning knobs.
struct ServerConfig {
  /// TCP port on 127.0.0.1; 0 = ephemeral (read back via port()).
  uint16_t Port = 0;
  /// The wrapped compile service. OnResult must stay unset (the server
  /// installs its own). Admission never blocks, so the reactor's
  /// tryEnqueue() call cannot stall the event loop.
  ServiceConfig Service;
  /// Wire-format caps handed to every connection's FrameReader.
  Limits Lim;
  /// Jobs one connection may have admitted-but-unanswered. Above this
  /// the server answers RetryAfter without consulting the service.
  uint32_t MaxInFlightPerConn = 8;
  /// Slow-client guard: max time a connection's outbound queue may make
  /// no progress; also bounds the final Goodbye flush of a drain.
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

/// The long-lived server. start() spins up the reactor; requestDrain()
/// (or destruction) runs the graceful shutdown.
class CompileServer {
public:
  explicit CompileServer(ServerConfig Config);
  CompileServer(const CompileServer &) = delete;
  CompileServer &operator=(const CompileServer &) = delete;
  /// requestDrain() + waitDrained().
  ~CompileServer();

  /// Binds and starts the reactor. False + \p Err on failure (port in
  /// use, or a service config that could block admission). Call once.
  bool start(std::string &Err);

  /// The bound port (valid after start()).
  uint16_t port() const { return BoundPort; }

  /// Begins the graceful drain (idempotent, non-blocking): stop
  /// accepting, refuse new requests with RetryAfter, answer everything
  /// admitted, Goodbye + close every connection, stop the reactor.
  void requestDrain();

  /// Blocks until the drain started by requestDrain() has finished.
  void waitDrained();

  bool draining() const { return Draining.load(std::memory_order_acquire); }

  /// Wire counters snapshot. Thread-safe.
  ServerStats snapshot() const;

  /// The wrapped service (e.g. for its StatsRegistry after a drain).
  CompileService &service() { return *Service; }

  /// Live connections (tests: idle-reap / drain assertions). Thread-safe.
  size_t liveConnections() const {
    return LiveConns.load(std::memory_order_acquire);
  }

private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    explicit Connection(const Limits &Lim) : Reader(Lim) {}
    uint64_t ConnId = 0;
    Socket Sock;
    FrameReader Reader;
    std::vector<uint8_t> Out; // outbound bytes; [0, OutAt) already sent
    size_t OutAt = 0;
    Clock::time_point LastTraffic; // idle reaping
    Clock::time_point LastWrite;   // write timeout, while Out is unflushed
    uint32_t InFlight = 0;
    bool SawHello = false;
    bool Closing = false; // final frame queued: close once flushed
    bool Dead = false;    // close at the start of the next pass

    bool unflushed() const { return OutAt < Out.size(); }
  };

  struct PendingJob {
    uint64_t ConnId = 0, ReqId = 0;
  };

  void reactorLoop();
  /// When \p C times out: its write timeout, else its idle reap.
  Clock::time_point deadline(const Connection &C) const;
  /// Accepts until the backlog is empty or the fds run out.
  void acceptAll();
  void closeConnection(Connection &C);
  /// One read, then every complete frame it finished.
  void readFrom(Connection &C, std::vector<uint8_t> &Buf);
  /// Dispatches one decoded frame. False = close the connection.
  bool handleFrame(Connection &C, const Frame &F);
  void handleRequest(Connection &C, WireRequest Req);
  /// The service's OnResult hook: parks \p R in the inbox.
  void deliverResult(uint64_t JobId, BatchResult R);
  /// Routes every parked result to the connection that asked for it.
  void processInbox();
  /// Turns one finished BatchResult into its wire answer: RetryAfter for
  /// JobStatus::Rejected, CompileResponse for everything else.
  void respond(Connection &C, uint64_t ReqId, BatchResult &R);
  /// Appends one frame to the outbound queue and writes what the kernel
  /// takes. Hosts the NetTornWrite site. False = not queued whole.
  bool queueFrame(Connection &C, std::vector<uint8_t> Bytes);
  /// Non-blocking write of the unflushed queue; marks C dead on error.
  void flush(Connection &C);
  void sendRetryAfter(Connection &C, uint64_t ReqId, const char *Reason);
  void sendProtocolError(Connection &C, ProtoErrCode Code,
                         const std::string &Detail);
  void wake();

  ServerConfig Cfg;
  std::unique_ptr<CompileService> Service;
  Socket Listener;
  uint16_t BoundPort = 0;
  Socket WakeRead, WakeWrite; // socketpair: wakes the reactor's poll
  bool Started = false;
  std::atomic<bool> Draining{false};

  /// Completed jobs waiting for the reactor; the one lock workers take.
  std::mutex InboxM;
  std::vector<std::pair<uint64_t, BatchResult>> Inbox;

  // Touched by the reactor thread only.
  std::unordered_map<uint64_t, std::unique_ptr<Connection>> Conns;
  std::unordered_map<uint64_t, PendingJob> Pending;
  uint64_t NextConnId = 1;
  /// After accept() ran out of fds, the listener is not polled before
  /// this (reset when a connection closes).
  Clock::time_point AcceptResume;

  struct AtomicStats {
    std::atomic<uint64_t> ConnectionsAccepted{0}, ConnectionsClosed{0},
        FramesRead{0}, RequestsAdmitted{0}, ResponsesSent{0},
        RetryAfterSent{0}, ProtocolErrors{0}, IdleReaped{0},
        SlowClientDrops{0}, OrphanedResults{0}, BytesRead{0},
        BytesWritten{0};
  };
  AtomicStats S;
  std::atomic<size_t> LiveConns{0};

  std::mutex JoinM; // waitDrained() may be called from several threads
  std::thread Reactor;
};

} // namespace net
} // namespace mpc

#endif // MPC_NET_SERVER_H
