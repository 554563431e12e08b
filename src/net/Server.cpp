#include "net/Server.h"

#include "support/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <cerrno>
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

  Started = true;
  Reactor = std::thread([this] { reactorLoop(); });
  return true;
}

void CompileServer::wake() {
  uint8_t B = 1;
  // Never blocks: a full wake buffer already guarantees a wake-up.
  (void)::send(WakeWrite.fd(), &B, 1, MSG_NOSIGNAL | MSG_DONTWAIT);
}

void CompileServer::deliverResult(uint64_t JobId, BatchResult R) {
  bool WasEmpty = false;
  {
    std::lock_guard<std::mutex> Lock(InboxM);
    WasEmpty = Inbox.empty();
    Inbox.emplace_back(JobId, std::move(R));
  }
  // One byte per empty-to-nonempty edge: the reactor drains the wake
  // socket before it swaps the whole inbox out, so no result is missed.
  if (WasEmpty)
    wake();
}

CompileServer::Clock::time_point
CompileServer::deadline(const Connection &C) const {
  if (C.unflushed())
    return C.LastWrite + std::chrono::milliseconds(Cfg.WriteTimeoutMs);
  if (Cfg.IdleTimeoutMs > 0 && C.InFlight == 0 && !C.Closing && !draining())
    return C.LastTraffic + std::chrono::milliseconds(Cfg.IdleTimeoutMs);
  return Clock::time_point::max();
}

void CompileServer::reactorLoop() {
  enum class Phase { Serving, AwaitingJobs, Flushing } P = Phase::Serving;
  Clock::time_point FlushDeadline = Clock::time_point::max();
  std::vector<pollfd> Fds;
  std::vector<uint8_t> Buf(64 * 1024);

  for (;;) {
    Clock::time_point Now = Clock::now();
    // Drain, as a state: stop accepting; once every admitted job is
    // answered, stop the (now idle) service and say Goodbye everywhere.
    if (P == Phase::Serving && draining()) {
      Listener.close();
      P = Phase::AwaitingJobs;
    }
    if (P == Phase::AwaitingJobs && Pending.empty()) {
      Service->stop();
      std::vector<uint8_t> Bye;
      encodeBare(Bye, MsgType::Goodbye);
      for (auto &Entry : Conns) {
        queueFrame(*Entry.second, Bye);
        Entry.second->Closing = true;
      }
      FlushDeadline = Now + std::chrono::milliseconds(Cfg.WriteTimeoutMs);
      P = Phase::Flushing;
    }
    // Past the flush deadline, whatever is still connected is cut off.
    bool CutOff = Now >= FlushDeadline;
    for (auto It = Conns.begin(); It != Conns.end();) {
      Connection &C = *It->second;
      bool Close = CutOff || C.Dead || (C.Closing && !C.unflushed());
      if (Close)
        closeConnection(C);
      It = Close ? Conns.erase(It) : std::next(It);
    }
    if (P == Phase::Flushing && Conns.empty())
      return;

    // The poll set, and a timeout from the nearest deadline.
    Clock::time_point Next = FlushDeadline;
    bool PollListener = P == Phase::Serving && Now >= AcceptResume;
    if (P == Phase::Serving && !PollListener)
      Next = AcceptResume;
    Fds.clear();
    Fds.push_back({WakeRead.fd(), POLLIN, 0});
    if (PollListener)
      Fds.push_back({Listener.fd(), POLLIN, 0});
    for (auto &Entry : Conns) {
      Connection &C = *Entry.second;
      // Backpressure: a peer that owes us a read gets no new input.
      short Events = C.unflushed() ? POLLOUT : POLLIN;
      Fds.push_back({C.Sock.fd(), Events, 0});
      Next = std::min(Next, deadline(C));
    }
    int TimeoutMs = -1;
    if (Next != Clock::time_point::max())
      TimeoutMs = int(std::max<int64_t>(
          0, std::chrono::ceil<std::chrono::milliseconds>(Next - Now).count()));

    if (::poll(Fds.data(), Fds.size(), TimeoutMs) > 0) {
      uint8_t Sink[64];
      if (Fds[0].revents)
        while (::recv(WakeRead.fd(), Sink, sizeof(Sink), MSG_DONTWAIT) > 0) {
        }
      // Conns is unchanged since the poll set was built: same order.
      const pollfd *PFD = Fds.data() + (PollListener ? 2 : 1);
      for (auto &Entry : Conns) {
        Connection &C = *Entry.second;
        short Ready = PFD->revents, Wanted = PFD->events;
        ++PFD;
        if (!Ready || C.Dead)
          continue;
        if (Wanted & POLLOUT)
          flush(C);
        else
          readFrom(C, Buf);
      }
      if (PollListener && (Fds[1].revents & POLLIN))
        acceptAll();
    }
    // Results land after the admissions above have their Pending entries:
    // a job completed inline by tryEnqueue is routed in this same pass.
    processInbox();

    Now = Clock::now();
    for (auto &Entry : Conns) {
      Connection &C = *Entry.second;
      if (C.Dead || Now < deadline(C))
        continue;
      (C.unflushed() ? S.SlowClientDrops : S.IdleReaped)
          .fetch_add(1, std::memory_order_relaxed);
      C.Dead = true;
    }
  }
}

void CompileServer::acceptAll() {
  for (;;) {
    Socket NS = acceptConn(Listener.fd());
    if (!NS.valid()) {
      // Out of fds: the refused connection stays queued, so the level-
      // triggered listener stays readable and polling it would spin. Sit
      // it out until a connection closes, or 50 ms at most.
      if (errno == EMFILE || errno == ENFILE || errno == ENOBUFS ||
          errno == ENOMEM)
        AcceptResume = Clock::now() + std::chrono::milliseconds(50);
      return; // EAGAIN: the backlog is empty
    }
    auto C = std::make_unique<Connection>(Cfg.Lim);
    C->ConnId = NextConnId++;
    C->Sock = std::move(NS);
    C->LastTraffic = Clock::now();
    Conns.emplace(C->ConnId, std::move(C));
    S.ConnectionsAccepted.fetch_add(1, std::memory_order_relaxed);
    LiveConns.fetch_add(1, std::memory_order_release);
  }
}

void CompileServer::closeConnection(Connection &C) {
  C.Sock.close();
  S.ConnectionsClosed.fetch_add(1, std::memory_order_relaxed);
  LiveConns.fetch_sub(1, std::memory_order_release);
  AcceptResume = {}; // an fd came free: accept again
}

void CompileServer::readFrom(Connection &C, std::vector<uint8_t> &Buf) {
  ssize_t N = ::recv(C.Sock.fd(), Buf.data(), Buf.size(), 0);
  if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR))
    return;
  if (N <= 0) {
    C.Dead = true; // orderly EOF or a reset
    return;
  }
  S.BytesRead.fetch_add(uint64_t(N), std::memory_order_relaxed);
  C.LastTraffic = Clock::now();
  C.Reader.feed(Buf.data(), size_t(N));

  Frame F;
  Decode D;
  while ((D = C.Reader.next(F)) == Decode::Ok) {
    S.FramesRead.fetch_add(1, std::memory_order_relaxed);
    if (!handleFrame(C, F)) {
      C.Closing = true;
      return;
    }
  }
  if (D == Decode::Error) {
    // Typed error, then hang up: after a framing error the stream can
    // never be resynchronized.
    sendProtocolError(C, C.Reader.errorCode(), C.Reader.error());
    return;
  }

  // Forced-disconnect fault site: the connection dies abruptly, as if
  // the network dropped it — possibly with jobs still in flight (their
  // results become orphans; the service itself must keep serving).
  if (FaultInjector *FI = activeFaultInjector())
    if (FI->dropConnection())
      C.Dead = true;
}

bool CompileServer::handleFrame(Connection &C, const Frame &F) {
  if (!C.SawHello && F.type() != MsgType::Hello) {
    sendProtocolError(C, ProtoErrCode::HelloRequired,
                      "first frame must be Hello");
    return false;
  }

  switch (F.type()) {
  case MsgType::Hello: {
    if (C.SawHello) {
      sendProtocolError(C, ProtoErrCode::MalformedPayload, "duplicate Hello");
      return false;
    }
    WireHello H;
    std::string Err;
    if (!decodeHello(F.Payload, F.PayloadLen, H, Err)) {
      sendProtocolError(C,
                        Err == "bad hello magic" ? ProtoErrCode::BadMagic
                                                 : ProtoErrCode::MalformedPayload,
                        Err);
      return false;
    }
    if (H.Version != ProtocolVersion) {
      sendProtocolError(C, ProtoErrCode::BadVersion,
                        "peer speaks version " + std::to_string(H.Version) +
                            ", server speaks " +
                            std::to_string(ProtocolVersion));
      return false;
    }
    C.SawHello = true;
    return true;
  }

  case MsgType::CompileRequest: {
    WireRequest Req;
    std::string Err;
    if (!decodeRequest(F.Payload, F.PayloadLen, Cfg.Lim, Req, Err)) {
      sendProtocolError(C, ProtoErrCode::MalformedPayload, Err);
      return false;
    }
    handleRequest(C, std::move(Req));
    return true;
  }

  case MsgType::Goodbye:
    return false; // orderly client hang-up; no error owed

  case MsgType::CompileResponse:
  case MsgType::RetryAfter:
  case MsgType::ProtocolError:
    sendProtocolError(C, ProtoErrCode::MalformedPayload,
                      "server-to-client frame type from a client");
    return false;
  }
  return false; // unreachable: FrameReader rejected unknown types already
}

void CompileServer::handleRequest(Connection &C, WireRequest Req) {
  if (draining()) {
    sendRetryAfter(C, Req.ReqId, "server is draining");
    return;
  }
  // Per-connection in-flight cap: enforced here, before the service sees
  // the job, so one greedy connection cannot monopolize the queue.
  if (C.InFlight >= Cfg.MaxInFlightPerConn) {
    sendRetryAfter(C, Req.ReqId, "connection in-flight cap reached");
    return;
  }

  BatchJob Job;
  Job.Sources = std::move(Req.Sources);
  Job.WantDump = Req.WantDump;
  Job.DeadlineSec = static_cast<double>(Req.DeadlineMillis) / 1000.0;

  AdmitResult AR = Service->tryEnqueue(std::move(Job));
  if (AR.Id == InvalidJobId) {
    // Stopped service: no slot, no result owed.
    sendRetryAfter(C, Req.ReqId, "service stopped");
    return;
  }
  if (AR.Accepted)
    S.RequestsAdmitted.fetch_add(1, std::memory_order_relaxed);
  // A refusal may already sit in the inbox; the reactor reads it only
  // after this entry exists.
  Pending.emplace(AR.Id, PendingJob{C.ConnId, Req.ReqId});
  ++C.InFlight;
}

void CompileServer::processInbox() {
  std::vector<std::pair<uint64_t, BatchResult>> Done;
  {
    std::lock_guard<std::mutex> Lock(InboxM);
    Done.swap(Inbox);
  }
  for (auto &[JobId, R] : Done) {
    auto Job = Pending.extract(JobId);
    assert(!Job.empty() && "result for a job that was never admitted");
    auto It = Conns.find(Job.mapped().ConnId);
    Connection *C = It == Conns.end() ? nullptr : It->second.get();
    if (C)
      --C->InFlight;
    // A dead connection's job still ran to completion (the service never
    // aborts admitted work); only its answer is dropped.
    if (C && !C->Dead && !C->Closing)
      respond(*C, Job.mapped().ReqId, R);
    else
      S.OrphanedResults.fetch_add(1, std::memory_order_relaxed);
  }
}

void CompileServer::respond(Connection &C, uint64_t ReqId, BatchResult &R) {
  if (R.Status == JobStatus::Rejected) {
    sendRetryAfter(C, ReqId,
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
  if (queueFrame(C, std::move(Out)))
    S.ResponsesSent.fetch_add(1, std::memory_order_relaxed);
  else
    S.OrphanedResults.fetch_add(1, std::memory_order_relaxed);
}

bool CompileServer::queueFrame(Connection &C, std::vector<uint8_t> Bytes) {
  if (C.Dead || C.Closing)
    return false;
  // Torn-write fault: queue a strict prefix of the frame, then hang up.
  // The peer's deframer sees a truncated frame followed by EOF — exactly
  // the shape a mid-write crash or connection reset produces.
  if (FaultInjector *FI = activeFaultInjector())
    if (Bytes.size() > 1 && FI->tearWrite()) {
      Bytes.resize(Bytes.size() / 2);
      C.Closing = true;
    }
  if (C.unflushed()) {
    C.Out.insert(C.Out.end(), Bytes.begin(), Bytes.end());
  } else {
    C.Out = std::move(Bytes);
    C.OutAt = 0;
    C.LastWrite = Clock::now();
  }
  flush(C);
  return !(C.Dead || C.Closing);
}

void CompileServer::flush(Connection &C) {
  while (C.unflushed()) {
    ssize_t N = ::send(C.Sock.fd(), C.Out.data() + C.OutAt,
                       C.Out.size() - C.OutAt, MSG_NOSIGNAL);
    if (N > 0) {
      C.OutAt += size_t(N);
      C.LastWrite = C.LastTraffic = Clock::now();
      S.BytesWritten.fetch_add(uint64_t(N), std::memory_order_relaxed);
    } else if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return; // kernel buffer full: POLLOUT resumes the flush
    } else if (!(N < 0 && errno == EINTR)) {
      C.Dead = true; // the peer is gone
      return;
    }
  }
  std::vector<uint8_t>().swap(C.Out); // a big response's buffer goes now
  C.OutAt = 0;
}

void CompileServer::sendRetryAfter(Connection &C, uint64_t ReqId,
                                   const char *Reason) {
  WireRetryAfter M;
  M.ReqId = ReqId;
  M.RetryAfterMillis = Cfg.RetryAfterMillis;
  M.Reason = Reason;
  std::vector<uint8_t> Out;
  encodeRetryAfter(Out, M);
  if (queueFrame(C, std::move(Out)))
    S.RetryAfterSent.fetch_add(1, std::memory_order_relaxed);
}

void CompileServer::sendProtocolError(Connection &C, ProtoErrCode Code,
                                      const std::string &Detail) {
  S.ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
  WireProtocolError M;
  M.Code = Code;
  M.Detail = Detail;
  std::vector<uint8_t> Out;
  encodeProtocolError(Out, M);
  queueFrame(C, std::move(Out)); // best effort — we hang up either way
  C.Closing = true;
}

void CompileServer::requestDrain() {
  if (Draining.exchange(true, std::memory_order_acq_rel))
    return;
  if (!Started) {
    // Never started: nothing to unwind, but the contract (waitDrained
    // returns, service stopped) still holds.
    Service->stop();
    return;
  }
  wake();
}

void CompileServer::waitDrained() {
  std::lock_guard<std::mutex> Lock(JoinM);
  if (Reactor.joinable())
    Reactor.join();
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
