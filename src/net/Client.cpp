#include "net/Client.h"

#include <chrono>
#include <thread>

using namespace mpc;
using namespace mpc::net;

const char *net::callStatusName(CallStatus St) {
  switch (St) {
  case CallStatus::Response:
    return "Response";
  case CallStatus::RetryAfter:
    return "RetryAfter";
  case CallStatus::Goodbye:
    return "Goodbye";
  case CallStatus::ProtoError:
    return "ProtoError";
  case CallStatus::Closed:
    return "Closed";
  case CallStatus::IoError:
    return "IoError";
  }
  return "?";
}

namespace {

/// splitmix64 — the jitter source: deterministic per (seed, attempt), so
/// retry schedules replay exactly under a fixed seed.
uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

} // namespace

bool CompileClient::connect(std::string &Err) {
  close();
  Sock = connectTcp(Cfg.Port, Cfg.ConnectTimeoutMs, Err);
  if (!Sock.valid())
    return false;
  Reader = FrameReader(Cfg.Lim); // a fresh stream needs a fresh deframer
  std::vector<uint8_t> Out;
  encodeHello(Out, WireHello{});
  if (!sendBytes(Out)) {
    Err = "hello write failed";
    Sock.close();
    return false;
  }
  return true;
}

void CompileClient::close() {
  if (!Sock.valid())
    return;
  std::vector<uint8_t> Out;
  encodeBare(Out, MsgType::Goodbye);
  sendBytes(Out); // best effort
  Sock.close();
}

bool CompileClient::sendBytes(const std::vector<uint8_t> &Bytes) {
  return Sock.valid() &&
         sendAll(Sock.fd(), Bytes.data(), Bytes.size(), Cfg.IoTimeoutMs);
}

bool CompileClient::readFrame(Frame &F, CallStatus &St) {
  uint8_t Buf[64 * 1024];
  for (;;) {
    switch (Reader.next(F)) {
    case Decode::Ok:
      return true;
    case Decode::Error:
      ++Stats.ProtocolErrors;
      LastErr = "malformed server frame: " + Reader.error();
      St = CallStatus::ProtoError;
      return false;
    case Decode::NeedMore:
      break;
    }
    size_t Got = 0;
    switch (recvSome(Sock.fd(), Buf, sizeof(Buf), Got, Cfg.IoTimeoutMs)) {
    case RecvStatus::Data:
      Reader.feed(Buf, Got);
      break;
    case RecvStatus::Timeout:
      LastErr = "timed out waiting for server";
      St = CallStatus::IoError;
      return false;
    case RecvStatus::Closed:
      LastErr = "connection closed by server";
      St = CallStatus::Closed;
      return false;
    case RecvStatus::Error:
      LastErr = "socket error while reading";
      St = CallStatus::IoError;
      return false;
    }
  }
}

CallStatus CompileClient::call(const WireRequest &Req, WireResponse &Reply) {
  std::vector<uint8_t> Out;
  encodeRequest(Out, Req);
  if (!sendBytes(Out)) {
    LastErr = "request write failed";
    return CallStatus::IoError;
  }
  ++Stats.RequestsSent;

  for (;;) {
    Frame F;
    CallStatus St = CallStatus::IoError;
    if (!readFrame(F, St))
      return St;

    std::string Err;
    switch (F.type()) {
    case MsgType::CompileResponse: {
      WireResponse R;
      if (!decodeResponse(F.Payload, F.PayloadLen, R, Err)) {
        ++Stats.ProtocolErrors;
        LastErr = "malformed CompileResponse: " + Err;
        return CallStatus::ProtoError;
      }
      if (R.ReqId != Req.ReqId)
        continue; // stale answer from a pre-reconnect life; not ours
      Reply = std::move(R);
      return CallStatus::Response;
    }
    case MsgType::RetryAfter: {
      WireRetryAfter RA;
      if (!decodeRetryAfter(F.Payload, F.PayloadLen, RA, Err)) {
        ++Stats.ProtocolErrors;
        LastErr = "malformed RetryAfter: " + Err;
        return CallStatus::ProtoError;
      }
      if (RA.ReqId != Req.ReqId)
        continue;
      ++Stats.RetryAfterSeen;
      RetryHint = RA.RetryAfterMillis;
      RetryReason = std::move(RA.Reason);
      return CallStatus::RetryAfter;
    }
    case MsgType::ProtocolError: {
      WireProtocolError PE;
      if (decodeProtocolError(F.Payload, F.PayloadLen, PE, Err))
        LastErr = std::string("server protocol error: ") +
                  protoErrCodeName(PE.Code) + ": " + PE.Detail;
      else
        LastErr = "server protocol error (undecodable payload)";
      ++Stats.ProtocolErrors;
      return CallStatus::ProtoError;
    }
    case MsgType::Goodbye:
      return CallStatus::Goodbye;
    default:
      ++Stats.ProtocolErrors;
      LastErr = "unexpected frame type " + std::to_string(F.RawType) +
                " from server";
      return CallStatus::ProtoError;
    }
  }
}

uint64_t CompileClient::backoffMillis(uint32_t Attempt,
                                      uint64_t HintMillis) const {
  uint32_t Shift = Attempt < 20 ? Attempt : 20;
  uint64_t Sched = uint64_t(Cfg.BackoffBaseMillis) << Shift;
  if (Sched > Cfg.BackoffCapMillis)
    Sched = Cfg.BackoffCapMillis;
  // Jitter over the top half: delay in [Sched/2, Sched], deterministic
  // per (seed, attempt) so a fleet with distinct seeds decorrelates.
  uint64_t Half = Sched / 2;
  uint64_t Jit = Half ? mix64(Cfg.JitterSeed * 0x9E3779B97F4A7C15ull +
                              Attempt) %
                            (Half + 1)
                      : 0;
  uint64_t Delay = Half + Jit;
  // The server's hint is a floor, not a suggestion: it knows its queue.
  return Delay < HintMillis ? HintMillis : Delay;
}

bool CompileClient::compile(const WireRequest &Req, WireResponse &Reply,
                            std::string &Err) {
  uint64_t Hint = 0;
  for (uint32_t Attempt = 0; Attempt <= Cfg.MaxRetries; ++Attempt) {
    if (Attempt > 0) {
      uint64_t Delay = backoffMillis(Attempt - 1, Hint);
      ++Stats.BackoffSleeps;
      Stats.TotalBackoffMillis += Delay;
      std::this_thread::sleep_for(std::chrono::milliseconds(Delay));
      Hint = 0;
    }
    if (!connected()) {
      std::string ConnErr;
      if (!connect(ConnErr)) {
        Err = ConnErr;
        continue; // server may still be coming up / mid-restart
      }
      if (Attempt > 0)
        ++Stats.Reconnects;
    }
    switch (call(Req, Reply)) {
    case CallStatus::Response:
      ++Stats.ResponsesOk;
      return true;
    case CallStatus::RetryAfter:
      Hint = RetryHint;
      continue;
    case CallStatus::Goodbye:
    case CallStatus::Closed:
    case CallStatus::IoError:
      // Broken or draining connection: compiles are pure, so resending
      // on a fresh connection is always safe.
      Sock.close();
      Err = LastErr;
      continue;
    case CallStatus::ProtoError:
      // Not retryable: one side has a bug; stay loud instead of looping.
      Sock.close();
      Err = LastErr;
      return false;
    }
  }
  ++Stats.GaveUp;
  if (Err.empty())
    Err = "gave up after " + std::to_string(Cfg.MaxRetries) + " retries";
  return false;
}
