#include "net/Protocol.h"

using namespace mpc;
using namespace mpc::net;

//===----------------------------------------------------------------------===//
// Varints
//===----------------------------------------------------------------------===//

void net::putVarint(std::vector<uint8_t> &Out, uint64_t V) {
  while (V >= 0x80) {
    Out.push_back(static_cast<uint8_t>(V) | 0x80);
    V >>= 7;
  }
  Out.push_back(static_cast<uint8_t>(V));
}

Decode net::getVarint(const uint8_t *P, size_t N, uint64_t &V,
                      size_t &Used) {
  uint64_t Acc = 0;
  for (size_t I = 0; I < N && I < MaxVarintBytes; ++I) {
    Acc |= uint64_t(P[I] & 0x7F) << (7 * I);
    if (!(P[I] & 0x80)) {
      V = Acc;
      Used = I + 1;
      return Decode::Ok;
    }
  }
  // Ran out of buffer mid-varint, or exceeded the 10-byte cap: the
  // former wants more bytes, the latter can never become a valid u64.
  return N >= MaxVarintBytes ? Decode::Error : Decode::NeedMore;
}

//===----------------------------------------------------------------------===//
// Shared payload-cursor helpers
//===----------------------------------------------------------------------===//

namespace {

/// Bounds-checked sequential reader over one frame payload. Every getter
/// returns false (leaving \p Err set) instead of reading past the end.
struct Cursor {
  const uint8_t *P;
  size_t N;
  size_t At = 0;
  std::string &Err;

  Cursor(const uint8_t *P, size_t N, std::string &Err)
      : P(P), N(N), Err(Err) {}

  bool fail(const char *What) {
    Err = What;
    return false;
  }

  bool u64(uint64_t &V, const char *What) {
    size_t Used = 0;
    if (getVarint(P + At, N - At, V, Used) != Decode::Ok)
      return fail(What);
    At += Used;
    return true;
  }

  bool u8(uint8_t &V, const char *What) {
    if (At >= N)
      return fail(What);
    V = P[At++];
    return true;
  }

  /// A length-prefixed byte string. The length is validated against the
  /// *remaining payload*, so a lying prefix cannot trigger a huge
  /// allocation: the frame cap already bounds N.
  bool str(std::string &S, const char *What) {
    uint64_t Len = 0;
    if (!u64(Len, What))
      return false;
    if (Len > N - At)
      return fail(What);
    S.assign(reinterpret_cast<const char *>(P + At),
             static_cast<size_t>(Len));
    At += static_cast<size_t>(Len);
    return true;
  }

  /// Exact-consumption check — trailing bytes mean a desynchronized or
  /// malicious peer.
  bool done() {
    if (At != N)
      return fail("trailing bytes after payload");
    return true;
  }
};

void putStr(std::vector<uint8_t> &Out, const std::string &S) {
  putVarint(Out, S.size());
  Out.insert(Out.end(), S.begin(), S.end());
}

/// Wraps \p Body (msgType already first byte) into a frame in \p Out.
void putFrame(std::vector<uint8_t> &Out, const std::vector<uint8_t> &Body) {
  putVarint(Out, Body.size());
  Out.insert(Out.end(), Body.begin(), Body.end());
}

} // namespace

//===----------------------------------------------------------------------===//
// Encoders
//===----------------------------------------------------------------------===//

bool net::isKnownMsgType(uint8_t Raw) {
  return Raw >= static_cast<uint8_t>(MsgType::Hello) &&
         Raw <= static_cast<uint8_t>(MsgType::Goodbye);
}

const char *net::protoErrCodeName(ProtoErrCode Code) {
  switch (Code) {
  case ProtoErrCode::BadMagic:
    return "BadMagic";
  case ProtoErrCode::BadVersion:
    return "BadVersion";
  case ProtoErrCode::FrameTooLarge:
    return "FrameTooLarge";
  case ProtoErrCode::MalformedFrame:
    return "MalformedFrame";
  case ProtoErrCode::UnknownMsgType:
    return "UnknownMsgType";
  case ProtoErrCode::MalformedPayload:
    return "MalformedPayload";
  case ProtoErrCode::HelloRequired:
    return "HelloRequired";
  }
  return "?";
}

void net::encodeHello(std::vector<uint8_t> &Out, const WireHello &M) {
  std::vector<uint8_t> Body;
  Body.push_back(static_cast<uint8_t>(MsgType::Hello));
  Body.insert(Body.end(), HelloMagic, HelloMagic + 4);
  putVarint(Body, M.Version);
  putFrame(Out, Body);
}

void net::encodeRequest(std::vector<uint8_t> &Out, const WireRequest &M) {
  std::vector<uint8_t> Body;
  Body.push_back(static_cast<uint8_t>(MsgType::CompileRequest));
  putVarint(Body, M.ReqId);
  Body.push_back(M.WantDump ? 1 : 0);
  putVarint(Body, M.DeadlineMillis);
  putVarint(Body, M.Sources.size());
  for (const SourceInput &S : M.Sources) {
    putStr(Body, S.FileName);
    putStr(Body, S.Text);
  }
  putFrame(Out, Body);
}

void net::encodeResponse(std::vector<uint8_t> &Out, const WireResponse &M) {
  std::vector<uint8_t> Body;
  Body.push_back(static_cast<uint8_t>(MsgType::CompileResponse));
  putVarint(Body, M.ReqId);
  Body.push_back(static_cast<uint8_t>(M.Status));
  Body.push_back(M.HadErrors ? 1 : 0);
  putVarint(Body, M.QueueWaitMicros);
  putVarint(Body, M.FrontendMicros);
  putVarint(Body, M.TransformMicros);
  putVarint(Body, M.BackendMicros);
  putStr(Body, M.DiagText);
  putStr(Body, M.DumpText);
  putFrame(Out, Body);
}

void net::encodeRetryAfter(std::vector<uint8_t> &Out,
                           const WireRetryAfter &M) {
  std::vector<uint8_t> Body;
  Body.push_back(static_cast<uint8_t>(MsgType::RetryAfter));
  putVarint(Body, M.ReqId);
  putVarint(Body, M.RetryAfterMillis);
  putStr(Body, M.Reason);
  putFrame(Out, Body);
}

void net::encodeProtocolError(std::vector<uint8_t> &Out,
                              const WireProtocolError &M) {
  std::vector<uint8_t> Body;
  Body.push_back(static_cast<uint8_t>(MsgType::ProtocolError));
  Body.push_back(static_cast<uint8_t>(M.Code));
  putStr(Body, M.Detail);
  putFrame(Out, Body);
}

void net::encodeBare(std::vector<uint8_t> &Out, MsgType Type) {
  std::vector<uint8_t> Body;
  Body.push_back(static_cast<uint8_t>(Type));
  putFrame(Out, Body);
}

//===----------------------------------------------------------------------===//
// Decoders
//===----------------------------------------------------------------------===//

bool net::decodeHello(const uint8_t *P, size_t N, WireHello &M,
                      std::string &Err) {
  Cursor C(P, N, Err);
  if (N < 4 || P[0] != HelloMagic[0] || P[1] != HelloMagic[1] ||
      P[2] != HelloMagic[2] || P[3] != HelloMagic[3])
    return C.fail("bad hello magic");
  C.At = 4;
  return C.u64(M.Version, "truncated hello version") && C.done();
}

bool net::decodeRequest(const uint8_t *P, size_t N, const Limits &Lim,
                        WireRequest &M, std::string &Err) {
  Cursor C(P, N, Err);
  uint8_t Flags = 0;
  uint64_t NumSources = 0;
  if (!C.u64(M.ReqId, "truncated request id") ||
      !C.u8(Flags, "truncated request flags") ||
      !C.u64(M.DeadlineMillis, "truncated request deadline") ||
      !C.u64(NumSources, "truncated source count"))
    return false;
  if (Flags & ~uint8_t(1))
    return C.fail("unknown request flag bits");
  M.WantDump = Flags & 1;
  if (NumSources > Lim.MaxSources)
    return C.fail("source count exceeds limit");
  // Each source needs >= 2 bytes (two empty strings), so a lying count
  // larger than the remaining payload fails before any reserve.
  if (NumSources > (N - C.At))
    return C.fail("source count exceeds payload");
  M.Sources.clear();
  M.Sources.reserve(static_cast<size_t>(NumSources));
  for (uint64_t I = 0; I < NumSources; ++I) {
    SourceInput S;
    if (!C.str(S.FileName, "truncated source name") ||
        !C.str(S.Text, "truncated source text"))
      return false;
    M.Sources.push_back(std::move(S));
  }
  return C.done();
}

bool net::decodeResponse(const uint8_t *P, size_t N, WireResponse &M,
                         std::string &Err) {
  Cursor C(P, N, Err);
  uint8_t Status = 0, HadErrors = 0;
  if (!C.u64(M.ReqId, "truncated response id") ||
      !C.u8(Status, "truncated response status") ||
      !C.u8(HadErrors, "truncated response error flag") ||
      !C.u64(M.QueueWaitMicros, "truncated response times") ||
      !C.u64(M.FrontendMicros, "truncated response times") ||
      !C.u64(M.TransformMicros, "truncated response times") ||
      !C.u64(M.BackendMicros, "truncated response times") ||
      !C.str(M.DiagText, "truncated response diagnostics") ||
      !C.str(M.DumpText, "truncated response dump"))
    return false;
  if (Status > static_cast<uint8_t>(WireStatus::Faulted))
    return C.fail("unknown response status");
  M.Status = static_cast<WireStatus>(Status);
  M.HadErrors = HadErrors != 0;
  return C.done();
}

bool net::decodeRetryAfter(const uint8_t *P, size_t N, WireRetryAfter &M,
                           std::string &Err) {
  Cursor C(P, N, Err);
  return C.u64(M.ReqId, "truncated retry id") &&
         C.u64(M.RetryAfterMillis, "truncated retry delay") &&
         C.str(M.Reason, "truncated retry reason") && C.done();
}

bool net::decodeProtocolError(const uint8_t *P, size_t N,
                              WireProtocolError &M, std::string &Err) {
  Cursor C(P, N, Err);
  uint8_t Code = 0;
  if (!C.u8(Code, "truncated error code") ||
      !C.str(M.Detail, "truncated error detail"))
    return false;
  if (Code < 1 || Code > static_cast<uint8_t>(ProtoErrCode::HelloRequired))
    return C.fail("unknown error code");
  M.Code = static_cast<ProtoErrCode>(Code);
  return C.done();
}

//===----------------------------------------------------------------------===//
// FrameReader
//===----------------------------------------------------------------------===//

Decode FrameReader::next(Frame &F) {
  if (Poisoned)
    return Decode::Error;

  // Compact the consumed prefix so the buffer stays bounded by one
  // frame's worth of data plus whatever the socket over-read.
  if (Pos > 0) {
    Buf.erase(Buf.begin(), Buf.begin() + static_cast<ptrdiff_t>(Pos));
    Pos = 0;
  }

  uint64_t Len = 0;
  size_t Used = 0;
  switch (getVarint(Buf.data(), Buf.size(), Len, Used)) {
  case Decode::NeedMore:
    return Decode::NeedMore;
  case Decode::Error:
    Poisoned = true;
    ErrCode = ProtoErrCode::MalformedFrame;
    ErrText = "frame header is not a valid varint";
    return Decode::Error;
  case Decode::Ok:
    break;
  }
  if (Len == 0) {
    Poisoned = true;
    ErrCode = ProtoErrCode::MalformedFrame;
    ErrText = "zero-length frame (no msgType)";
    return Decode::Error;
  }
  // The cap is enforced from the header alone, before the body arrives:
  // a peer cannot make us buffer an oversized frame by declaring one.
  if (Len > Lim.MaxFrameBytes) {
    Poisoned = true;
    ErrCode = ProtoErrCode::FrameTooLarge;
    ErrText = "declared frame length " + std::to_string(Len) +
              " exceeds cap " + std::to_string(Lim.MaxFrameBytes);
    return Decode::Error;
  }
  if (Buf.size() - Used < Len)
    return Decode::NeedMore;

  F.RawType = Buf[Used];
  F.Payload = Buf.data() + Used + 1;
  F.PayloadLen = static_cast<size_t>(Len) - 1;
  Pos = Used + static_cast<size_t>(Len);
  if (!isKnownMsgType(F.RawType)) {
    // Framing survived, so this *could* be skipped — but a peer sending
    // types we don't know is as likely desynchronized as newer, and
    // answering with a typed error is the safer contract.
    Poisoned = true;
    ErrCode = ProtoErrCode::UnknownMsgType;
    ErrText = "unknown msgType " + std::to_string(int(F.RawType));
    return Decode::Error;
  }
  return Decode::Ok;
}
