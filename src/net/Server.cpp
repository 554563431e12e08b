#include "net/Server.h"

#include "support/FaultInjector.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>

using namespace mpc;
using namespace mpc::net;

CompileServer::CompileServer(ServerConfig Config) : Cfg(std::move(Config)) {
  // The server owns result delivery; the service must stream, not park.
  Cfg.Service.OnResult = [this](uint64_t Id, BatchResult R) {
    deliverResult(Id, std::move(R));
  };
  Service = std::make_unique<CompileService>(Cfg.Service);
}

CompileServer::~CompileServer() {
  requestDrain();
  waitDrained();
  if (Drainer.joinable())
    Drainer.join();
  if (Acceptor.joinable())
    Acceptor.join();
}

bool CompileServer::start(std::string &Err) {
  uint16_t Port = Cfg.Port;
  Listener = listenTcp(Port, Err);
  if (!Listener.valid())
    return false;
  BoundPort = Port;

  int SV[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, SV) != 0) {
    Err = std::string("socketpair: ") + std::strerror(errno);
    return false;
  }
  WakeRead = Socket(SV[0]);
  WakeWrite = Socket(SV[1]);

  Started.store(true, std::memory_order_release);
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void CompileServer::acceptLoop() {
  while (!Draining.load(std::memory_order_acquire)) {
    pollfd FDs[2] = {{Listener.fd(), POLLIN, 0}, {WakeRead.fd(), POLLIN, 0}};
    int RC = ::poll(FDs, 2, -1);
    if (RC < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (FDs[1].revents)
      break; // drain wake-up
    if (!(FDs[0].revents & POLLIN))
      continue;
    Socket NS = acceptConn(Listener.fd());
    if (!NS.valid())
      continue;
    if (Draining.load(std::memory_order_acquire))
      break; // NS closes via RAII — we are no longer accepting work
    S.ConnectionsAccepted.fetch_add(1, std::memory_order_relaxed);
    auto Conn = std::make_shared<Connection>();
    Conn->Sock = std::move(NS);
    {
      std::lock_guard<std::mutex> Lock(ConnsM);
      Conn->ConnId = NextConnId++;
      Conns.emplace(Conn->ConnId, Conn);
    }
    {
      std::lock_guard<std::mutex> Lock(ReadersM);
      ++ActiveReaders;
    }
    // Detached: a reader cannot join itself when the peer hangs up, so
    // drain synchronizes on ActiveReaders instead of thread handles.
    std::thread([this, Conn] {
      connectionLoop(Conn);
      readerExit();
    }).detach();
  }
}

void CompileServer::readerExit() {
  std::lock_guard<std::mutex> Lock(ReadersM);
  --ActiveReaders;
  // Notify under the lock: the destructor may tear the condvar down the
  // instant the waiter sees zero.
  ReadersCv.notify_all();
}

void CompileServer::connectionLoop(std::shared_ptr<Connection> Conn) {
  FrameReader Reader(Cfg.Lim);
  uint8_t Buf[64 * 1024];
  auto LastActivity = std::chrono::steady_clock::now();

  while (!Conn->Dead.load(std::memory_order_acquire)) {
    size_t Got = 0;
    RecvStatus RS =
        recvSome(Conn->Sock.fd(), Buf, sizeof(Buf), Got, Cfg.PollMs);
    if (RS == RecvStatus::Closed || RS == RecvStatus::Error)
      break;
    if (RS == RecvStatus::Timeout) {
      // Idle reaping: traffic-free AND nothing owed. Never reap while a
      // response is outstanding, and never during drain (drain closes
      // connections itself, after the Goodbye).
      if (Cfg.IdleTimeoutMs > 0 && !Draining.load(std::memory_order_acquire) &&
          Conn->InFlight.load(std::memory_order_acquire) == 0) {
        auto Idle = std::chrono::steady_clock::now() - LastActivity;
        if (Idle >= std::chrono::milliseconds(Cfg.IdleTimeoutMs)) {
          S.IdleReaped.fetch_add(1, std::memory_order_relaxed);
          break;
        }
      }
      continue;
    }

    S.BytesRead.fetch_add(Got, std::memory_order_relaxed);
    LastActivity = std::chrono::steady_clock::now();
    Reader.feed(Buf, Got);

    Frame F;
    Decode D;
    bool Close = false;
    while ((D = Reader.next(F)) == Decode::Ok) {
      S.FramesRead.fetch_add(1, std::memory_order_relaxed);
      if (!handleFrame(Conn, F)) {
        Close = true;
        break;
      }
    }
    if (Close)
      break;
    if (D == Decode::Error) {
      // Typed error, then hang up: after a framing error the stream can
      // never be resynchronized.
      sendProtocolError(Conn, Reader.errorCode(), Reader.error());
      break;
    }

    // Forced-disconnect fault site: the connection dies abruptly, as if
    // the network dropped it — possibly with jobs still in flight (their
    // results become orphans; the service itself must keep serving).
    if (FaultInjector *FI = activeFaultInjector())
      if (FI->dropConnection())
        break;
  }

  Conn->Dead.store(true, std::memory_order_release);
  Conn->Sock.shutdownBoth(); // wake any writer; fd closes with the last ref
  dropConnectionEntry(Conn->ConnId);
}

bool CompileServer::handleFrame(const std::shared_ptr<Connection> &Conn,
                                const Frame &F) {
  if (!Conn->SawHello.load(std::memory_order_acquire) &&
      F.type() != MsgType::Hello) {
    sendProtocolError(Conn, ProtoErrCode::HelloRequired,
                      "first frame must be Hello");
    return false;
  }

  switch (F.type()) {
  case MsgType::Hello: {
    if (Conn->SawHello.load(std::memory_order_acquire)) {
      sendProtocolError(Conn, ProtoErrCode::MalformedPayload,
                        "duplicate Hello");
      return false;
    }
    WireHello H;
    std::string Err;
    if (!decodeHello(F.Payload, F.PayloadLen, H, Err)) {
      sendProtocolError(Conn,
                        Err == "bad hello magic" ? ProtoErrCode::BadMagic
                                                 : ProtoErrCode::MalformedPayload,
                        Err);
      return false;
    }
    if (H.Version != ProtocolVersion) {
      sendProtocolError(Conn, ProtoErrCode::BadVersion,
                        "peer speaks version " + std::to_string(H.Version) +
                            ", server speaks " +
                            std::to_string(ProtocolVersion));
      return false;
    }
    Conn->SawHello.store(true, std::memory_order_release);
    return true;
  }

  case MsgType::CompileRequest: {
    WireRequest Req;
    std::string Err;
    if (!decodeRequest(F.Payload, F.PayloadLen, Cfg.Lim, Req, Err)) {
      sendProtocolError(Conn, ProtoErrCode::MalformedPayload, Err);
      return false;
    }
    handleRequest(Conn, std::move(Req));
    return true;
  }

  case MsgType::Ping: {
    std::vector<uint8_t> Out;
    encodeBare(Out, MsgType::Pong);
    writeFrame(Conn, Out);
    return true;
  }

  case MsgType::Goodbye:
    return false; // orderly client hang-up; no error owed

  case MsgType::Pong:
    return true; // tolerated, meaningless from a client

  case MsgType::CompileResponse:
  case MsgType::RetryAfter:
  case MsgType::ProtocolError:
    sendProtocolError(Conn, ProtoErrCode::MalformedPayload,
                      "server-to-client frame type from a client");
    return false;
  }
  return false; // unreachable: FrameReader rejected unknown types already
}

void CompileServer::handleRequest(const std::shared_ptr<Connection> &Conn,
                                  WireRequest Req) {
  if (Draining.load(std::memory_order_acquire)) {
    sendRetryAfter(Conn, Req.ReqId, "server is draining");
    return;
  }
  // Per-connection in-flight cap: enforced here, before the service sees
  // the job, so one greedy connection cannot monopolize the queue.
  if (Conn->InFlight.load(std::memory_order_acquire) >=
      Cfg.MaxInFlightPerConn) {
    sendRetryAfter(Conn, Req.ReqId, "connection in-flight cap reached");
    return;
  }

  BatchJob Job;
  Job.Sources = std::move(Req.Sources);
  Job.WantDump = Req.WantDump;
  Job.Priority =
      Req.Interactive ? JobPriority::Interactive : JobPriority::Batch;
  Job.DeadlineSec = static_cast<double>(Req.DeadlineMillis) / 1000.0;

  // Count the job in flight *before* enqueueing: the completion callback
  // (which decrements) can fire before tryEnqueue returns.
  Conn->InFlight.fetch_add(1, std::memory_order_acq_rel);
  AdmitResult AR = Service->tryEnqueue(std::move(Job));
  if (AR.Id == InvalidJobId) {
    // Stopped service: no slot, no callback owed.
    Conn->InFlight.fetch_sub(1, std::memory_order_acq_rel);
    sendRetryAfter(Conn, Req.ReqId, "service stopped");
    return;
  }
  if (AR.Accepted)
    S.RequestsAdmitted.fetch_add(1, std::memory_order_relaxed);

  // Claim the id. The callback may already have fired (stashing the
  // result under Unclaimed) — deliver inline in that case.
  std::unique_ptr<BatchResult> Early;
  {
    std::lock_guard<std::mutex> Lock(PendingM);
    auto It = Unclaimed.find(AR.Id);
    if (It != Unclaimed.end()) {
      Early = std::move(It->second);
      Unclaimed.erase(It);
    } else {
      Pending.emplace(AR.Id, PendingJob{Conn, Req.ReqId});
    }
  }
  if (Early) {
    respond(Conn, Req.ReqId, *Early);
    Conn->InFlight.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void CompileServer::deliverResult(uint64_t JobId, BatchResult R) {
  PendingJob PJ;
  {
    std::lock_guard<std::mutex> Lock(PendingM);
    auto It = Pending.find(JobId);
    if (It == Pending.end()) {
      // The admitting thread has not registered this id yet — it is
      // still inside tryEnqueue. Stash; it claims after returning.
      Unclaimed.emplace(JobId,
                        std::make_unique<BatchResult>(std::move(R)));
      return;
    }
    PJ = std::move(It->second);
    Pending.erase(It);
  }
  respond(PJ.Conn, PJ.ReqId, R);
  PJ.Conn->InFlight.fetch_sub(1, std::memory_order_acq_rel);
}

void CompileServer::respond(const std::shared_ptr<Connection> &Conn,
                            uint64_t ReqId, BatchResult &R) {
  if (Conn->Dead.load(std::memory_order_acquire)) {
    // Disconnect mid-job: the job still ran to completion (the service
    // never aborts admitted work); only the answer has nowhere to go.
    S.OrphanedResults.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (R.Status == JobStatus::Rejected) {
    sendRetryAfter(Conn, ReqId,
                   R.DiagText.empty() ? "rejected by admission control"
                                      : R.DiagText.c_str());
    return;
  }

  WireResponse Resp;
  Resp.ReqId = ReqId;
  switch (R.Status) {
  case JobStatus::Ok:
    Resp.Status = WireStatus::Ok;
    break;
  case JobStatus::DeadlineExceeded:
    Resp.Status = WireStatus::DeadlineExceeded;
    break;
  case JobStatus::Faulted:
    Resp.Status = WireStatus::Faulted;
    break;
  case JobStatus::Rejected:
    break; // handled above
  }
  Resp.HadErrors = R.HadErrors;
  const CompileTimings &T = R.Timings;
  Resp.QueueWaitMicros = static_cast<uint64_t>(T.QueueWaitSec * 1e6);
  Resp.FrontendMicros = static_cast<uint64_t>(T.FrontendSec * 1e6);
  Resp.TransformMicros = static_cast<uint64_t>(T.TransformSec * 1e6);
  Resp.BackendMicros = static_cast<uint64_t>(T.BackendSec * 1e6);
  Resp.DiagText = std::move(R.DiagText);
  Resp.DumpText = std::move(R.DumpText);

  std::vector<uint8_t> Out;
  encodeResponse(Out, Resp);
  if (writeFrame(Conn, Out))
    S.ResponsesSent.fetch_add(1, std::memory_order_relaxed);
  else
    S.OrphanedResults.fetch_add(1, std::memory_order_relaxed);
}

bool CompileServer::writeFrame(const std::shared_ptr<Connection> &Conn,
                               const std::vector<uint8_t> &Bytes) {
  std::lock_guard<std::mutex> Lock(Conn->WriteM);
  if (Conn->Dead.load(std::memory_order_acquire))
    return false;
  if (!sendAll(Conn->Sock.fd(), Bytes.data(), Bytes.size(),
               Cfg.WriteTimeoutMs)) {
    // Timed out (a peer that stopped reading) or failed outright: either
    // way this connection is beyond saving. Mark dead and wake its
    // reader so the fd is torn down once, through the normal exit path.
    S.SlowClientDrops.fetch_add(1, std::memory_order_relaxed);
    Conn->Dead.store(true, std::memory_order_release);
    Conn->Sock.shutdownBoth();
    return false;
  }
  S.BytesWritten.fetch_add(Bytes.size(), std::memory_order_relaxed);
  return true;
}

void CompileServer::sendRetryAfter(const std::shared_ptr<Connection> &Conn,
                                   uint64_t ReqId, const char *Reason) {
  WireRetryAfter M;
  M.ReqId = ReqId;
  M.RetryAfterMillis = Cfg.RetryAfterMillis;
  M.Reason = Reason;
  std::vector<uint8_t> Out;
  encodeRetryAfter(Out, M);
  if (writeFrame(Conn, Out))
    S.RetryAfterSent.fetch_add(1, std::memory_order_relaxed);
}

void CompileServer::sendProtocolError(const std::shared_ptr<Connection> &Conn,
                                      ProtoErrCode Code,
                                      const std::string &Detail) {
  S.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
  WireProtocolError M;
  M.Code = Code;
  M.Detail = Detail;
  std::vector<uint8_t> Out;
  encodeProtocolError(Out, M);
  writeFrame(Conn, Out); // best effort — we are hanging up either way
}

void CompileServer::dropConnectionEntry(uint64_t ConnId) {
  std::lock_guard<std::mutex> Lock(ConnsM);
  if (Conns.erase(ConnId))
    S.ConnectionsClosed.fetch_add(1, std::memory_order_relaxed);
}

void CompileServer::requestDrain() {
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true,
                                        std::memory_order_acq_rel))
    return;
  if (!Started.load(std::memory_order_acquire)) {
    // Never started: nothing to unwind, but the contract (waitDrained
    // returns, service stopped) still holds.
    Service->stop();
    std::lock_guard<std::mutex> Lock(DrainM);
    DrainDone = true;
    DrainCv.notify_all();
    return;
  }
  uint8_t B = 1;
  (void)::send(WakeWrite.fd(), &B, 1, MSG_NOSIGNAL);
  Drainer = std::thread([this] { drainMain(); });
}

void CompileServer::drainMain() {
  // 1. Stop accepting (the acceptor saw Draining + the wake byte).
  if (Acceptor.joinable())
    Acceptor.join();
  Listener.close();

  // 2. Answer everything admitted. stop() returns only after the
  //    OnResult callback has fired for every admitted job, i.e. after
  //    every owed CompileResponse/RetryAfter has been written (or
  //    counted as an orphan). Readers keep running meanwhile, answering
  //    late arrivals with RetryAfter("server is draining").
  Service->stop();

  // 3. Say Goodbye on every surviving connection, then shut it down so
  //    its reader unblocks and exits.
  std::vector<std::shared_ptr<Connection>> Live;
  {
    std::lock_guard<std::mutex> Lock(ConnsM);
    Live.reserve(Conns.size());
    for (auto &Entry : Conns)
      Live.push_back(Entry.second);
  }
  std::vector<uint8_t> Bye;
  encodeBare(Bye, MsgType::Goodbye);
  for (auto &Conn : Live) {
    writeFrame(Conn, Bye);
    Conn->Dead.store(true, std::memory_order_release);
    Conn->Sock.shutdownBoth();
  }

  // 4. Wait for every reader to unwind (they remove themselves from
  //    Conns on the way out).
  {
    std::unique_lock<std::mutex> Lock(ReadersM);
    ReadersCv.wait(Lock, [this] { return ActiveReaders == 0; });
  }

  std::lock_guard<std::mutex> Lock(DrainM);
  DrainDone = true;
  DrainCv.notify_all();
}

void CompileServer::waitDrained() {
  std::unique_lock<std::mutex> Lock(DrainM);
  DrainCv.wait(Lock, [this] { return DrainDone; });
}

ServerStats CompileServer::snapshot() const {
  ServerStats Out;
  Out.ConnectionsAccepted = S.ConnectionsAccepted.load();
  Out.ConnectionsClosed = S.ConnectionsClosed.load();
  Out.FramesRead = S.FramesRead.load();
  Out.RequestsAdmitted = S.RequestsAdmitted.load();
  Out.ResponsesSent = S.ResponsesSent.load();
  Out.RetryAfterSent = S.RetryAfterSent.load();
  Out.ProtocolErrors = S.ProtocolErrors.load();
  Out.IdleReaped = S.IdleReaped.load();
  Out.SlowClientDrops = S.SlowClientDrops.load();
  Out.OrphanedResults = S.OrphanedResults.load();
  Out.BytesRead = S.BytesRead.load();
  Out.BytesWritten = S.BytesWritten.load();
  return Out;
}

size_t CompileServer::liveConnections() const {
  std::lock_guard<std::mutex> Lock(ConnsM);
  return Conns.size();
}
