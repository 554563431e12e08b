//===----------------------------------------------------------------------===//
///
/// \file
/// The compile service's wire protocol: a small length-prefixed binary
/// framing over a byte stream, designed so that *parsing is total* — any
/// byte sequence a hostile or broken peer can produce decodes to Ok,
/// NeedMore, or a typed Error, never to a crash or an unbounded
/// allocation.
///
/// Frame layout (everything little-endian, lengths as LEB128 varints):
///
///   +----------------+---------+-------------------+
///   | varint Len     | msgType | payload           |
///   | (of type+body) | 1 byte  | Len - 1 bytes     |
///   +----------------+---------+-------------------+
///
/// Defensive rules the reader enforces *before* buffering a frame body:
///
///   - Len == 0 (a frame with no msgType) is a protocol error;
///   - Len > Limits::MaxFrameBytes is a protocol error, detected from
///     the header alone — an attacker cannot make the server buffer an
///     oversized body by lying about the length;
///   - a varint longer than MaxVarintBytes (10) is a protocol error
///     (every u64 fits in 10 LEB128 bytes, so an 11-byte varint is
///     necessarily garbage, not a big number);
///   - an unknown msgType is a typed error, surfaced after framing so
///     the connection can answer with ProtocolError and close instead of
///     desynchronizing.
///
/// Message payloads are decoded by pure functions that (a) bounds-check
/// every read, (b) cap repetition counts (Limits::MaxSources), and (c)
/// require the payload to be consumed *exactly* — trailing bytes mean a
/// malformed or desynchronized peer and fail the decode. All of this is
/// unit-fuzzable without a socket (tests/net/NetProtocolTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef MPC_NET_PROTOCOL_H
#define MPC_NET_PROTOCOL_H

#include "frontend/Frontend.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mpc {
namespace net {

/// Protocol version carried in the Hello frame. Bumped on any wire
/// change; the server refuses mismatches with ProtocolError(BadVersion).
inline constexpr uint64_t ProtocolVersion = 2;

/// First four payload bytes of a Hello frame ("MPCN"). A peer that is
/// not speaking this protocol at all fails here, on its first frame.
inline constexpr uint8_t HelloMagic[4] = {'M', 'P', 'C', 'N'};

/// Every frame type on the wire.
enum class MsgType : uint8_t {
  /// client -> server, first frame on a connection: magic + version.
  Hello = 1,
  /// client -> server: one compile job.
  CompileRequest = 2,
  /// server -> client: the job's result (any JobStatus except Rejected).
  CompileResponse = 3,
  /// server -> client: the job was not admitted (queue full, per-
  /// connection cap, or draining); retry after the suggested delay.
  RetryAfter = 4,
  /// server -> client: the peer violated the protocol; the server closes
  /// the connection right after sending this.
  ProtocolError = 5,
  /// server -> client: graceful shutdown — every owed response has been
  /// sent and the server is about to close the connection.
  Goodbye = 6,
};

/// True iff \p Raw is a frame type this protocol version defines.
bool isKnownMsgType(uint8_t Raw);

/// Why the server is hanging up (ProtocolError payload).
enum class ProtoErrCode : uint8_t {
  BadMagic = 1,
  BadVersion = 2,
  FrameTooLarge = 3,
  MalformedFrame = 4,
  UnknownMsgType = 5,
  MalformedPayload = 6,
  HelloRequired = 7,
};
const char *protoErrCodeName(ProtoErrCode Code);

/// Job outcome over the wire (CompileResponse). Mirrors JobStatus minus
/// Rejected, which travels as its own RetryAfter frame.
enum class WireStatus : uint8_t {
  Ok = 0,
  DeadlineExceeded = 1,
  Faulted = 2,
};

/// Hard caps the defensive parser enforces. A server hands its limits to
/// every FrameReader it creates; clients use the defaults.
struct Limits {
  /// Largest admissible frame (msgType + payload). Checked against the
  /// header before any body byte is buffered.
  size_t MaxFrameBytes = 16u << 20;
  /// Most sources one CompileRequest may carry.
  uint64_t MaxSources = 4096;
};

/// Longest legal LEB128 varint (ceil(64/7)).
inline constexpr size_t MaxVarintBytes = 10;

//===----------------------------------------------------------------------===//
// Varints
//===----------------------------------------------------------------------===//

/// Appends \p V as a LEB128 varint.
void putVarint(std::vector<uint8_t> &Out, uint64_t V);

/// Incremental decode result.
enum class Decode : uint8_t { Ok, NeedMore, Error };

/// Decodes a varint from [P, P+N). On Ok sets \p V and \p Used; NeedMore
/// means the buffer ends mid-varint; Error means >MaxVarintBytes.
Decode getVarint(const uint8_t *P, size_t N, uint64_t &V, size_t &Used);

//===----------------------------------------------------------------------===//
// Messages
//===----------------------------------------------------------------------===//

/// Hello payload.
struct WireHello {
  uint64_t Version = ProtocolVersion;
};

/// CompileRequest payload. ReqId is chosen by the client and echoed in
/// the matching CompileResponse/RetryAfter, so responses can arrive out
/// of order (server workers complete jobs as they finish).
struct WireRequest {
  uint64_t ReqId = 0;
  bool WantDump = false;
  /// Soft deadline in milliseconds measured from server admission
  /// (0 = none).
  uint64_t DeadlineMillis = 0;
  std::vector<SourceInput> Sources;
};

/// CompileResponse payload. Times travel as integer microseconds.
struct WireResponse {
  uint64_t ReqId = 0;
  WireStatus Status = WireStatus::Ok;
  bool HadErrors = false;
  uint64_t QueueWaitMicros = 0;
  uint64_t FrontendMicros = 0;
  uint64_t TransformMicros = 0;
  uint64_t BackendMicros = 0;
  std::string DiagText;
  std::string DumpText;
};

/// RetryAfter payload.
struct WireRetryAfter {
  uint64_t ReqId = 0;
  uint64_t RetryAfterMillis = 0;
  std::string Reason;
};

/// ProtocolError payload.
struct WireProtocolError {
  ProtoErrCode Code = ProtoErrCode::MalformedFrame;
  std::string Detail;
};

/// Frame encoders: each appends one complete frame (header + type +
/// payload) to \p Out.
void encodeHello(std::vector<uint8_t> &Out, const WireHello &M);
void encodeRequest(std::vector<uint8_t> &Out, const WireRequest &M);
void encodeResponse(std::vector<uint8_t> &Out, const WireResponse &M);
void encodeRetryAfter(std::vector<uint8_t> &Out, const WireRetryAfter &M);
void encodeProtocolError(std::vector<uint8_t> &Out,
                         const WireProtocolError &M);
void encodeBare(std::vector<uint8_t> &Out, MsgType Type); // Goodbye

/// Payload decoders (the msgType byte is already stripped). Return false
/// on malformed input with a human-readable \p Err; never throw, never
/// read out of bounds, and require exact consumption of the payload.
bool decodeHello(const uint8_t *P, size_t N, WireHello &M, std::string &Err);
bool decodeRequest(const uint8_t *P, size_t N, const Limits &Lim,
                   WireRequest &M, std::string &Err);
bool decodeResponse(const uint8_t *P, size_t N, WireResponse &M,
                    std::string &Err);
bool decodeRetryAfter(const uint8_t *P, size_t N, WireRetryAfter &M,
                      std::string &Err);
bool decodeProtocolError(const uint8_t *P, size_t N, WireProtocolError &M,
                         std::string &Err);

//===----------------------------------------------------------------------===//
// FrameReader
//===----------------------------------------------------------------------===//

/// One complete frame, viewing the reader's internal buffer. Valid until
/// the next call into the reader.
struct Frame {
  uint8_t RawType = 0;
  const uint8_t *Payload = nullptr;
  size_t PayloadLen = 0;

  MsgType type() const { return static_cast<MsgType>(RawType); }
};

/// Incremental defensive deframer. Feed it whatever byte chunks the
/// socket produces (any split, including one byte at a time); pull
/// complete frames with next(). After Error the reader is poisoned —
/// the connection must be closed, since the stream can no longer be
/// resynchronized.
class FrameReader {
public:
  explicit FrameReader(Limits Lim = Limits()) : Lim(Lim) {}

  /// Appends raw stream bytes.
  void feed(const uint8_t *P, size_t N) { Buf.insert(Buf.end(), P, P + N); }

  /// Extracts the next frame. Ok fills \p F (valid until the next feed/
  /// next call); NeedMore means the buffer holds no complete frame;
  /// Error means the stream is malformed (error() tells why).
  Decode next(Frame &F);

  /// Diagnosis of the Error state.
  ProtoErrCode errorCode() const { return ErrCode; }
  const std::string &error() const { return ErrText; }

  /// Bytes currently buffered (tests pin that this stays bounded).
  size_t buffered() const { return Buf.size(); }

private:
  Limits Lim;
  std::vector<uint8_t> Buf;
  size_t Pos = 0; // consumed prefix; compacted between frames
  bool Poisoned = false;
  ProtoErrCode ErrCode = ProtoErrCode::MalformedFrame;
  std::string ErrText;
};

} // namespace net
} // namespace mpc

#endif // MPC_NET_PROTOCOL_H
