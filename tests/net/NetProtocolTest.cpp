//===----------------------------------------------------------------------===//
//
// Malformed-frame suite for the wire protocol: the defensive-parsing
// contract is that ANY byte sequence decodes to Ok, NeedMore, or a typed
// Error — never a crash, never an unbounded allocation. The fuzz-style
// cases run under ASan in CI, which is what turns "didn't crash" into
// "didn't even read out of bounds".
//
//===----------------------------------------------------------------------===//

#include "net/Client.h"
#include "net/Protocol.h"
#include "net/Server.h"
#include "net/Socket.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace mpc;
using namespace mpc::net;

namespace {

std::vector<uint8_t> encodedRequest() {
  WireRequest Req;
  Req.ReqId = 42;
  Req.WantDump = true;
  Req.DeadlineMillis = 1500;
  Req.Sources.push_back({"a.scala", "object A { def f(x: Int) = x }"});
  Req.Sources.push_back({"b.scala", "object B"});
  std::vector<uint8_t> Out;
  encodeRequest(Out, Req);
  return Out;
}

/// Feeds \p Bytes into a fresh reader in chunks of \p ChunkSize and
/// drains every frame, returning the terminal state.
Decode drainAll(const std::vector<uint8_t> &Bytes, size_t ChunkSize,
                size_t *FramesOut = nullptr) {
  FrameReader Reader;
  size_t Frames = 0;
  Decode Last = Decode::NeedMore;
  for (size_t At = 0; At < Bytes.size(); At += ChunkSize) {
    size_t N = std::min(ChunkSize, Bytes.size() - At);
    Reader.feed(Bytes.data() + At, N);
    Frame F;
    while ((Last = Reader.next(F)) == Decode::Ok)
      ++Frames;
    if (Last == Decode::Error)
      break;
  }
  if (FramesOut)
    *FramesOut = Frames;
  return Last;
}

} // namespace

//===----------------------------------------------------------------------===//
// Varints
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, VarintRoundTrip) {
  for (uint64_t V : {uint64_t(0), uint64_t(1), uint64_t(127), uint64_t(128),
                     uint64_t(300), uint64_t(1) << 21, uint64_t(1) << 35,
                     ~uint64_t(0)}) {
    std::vector<uint8_t> Buf;
    putVarint(Buf, V);
    ASSERT_LE(Buf.size(), MaxVarintBytes);
    uint64_t Back = 0;
    size_t Used = 0;
    EXPECT_EQ(getVarint(Buf.data(), Buf.size(), Back, Used), Decode::Ok);
    EXPECT_EQ(Back, V);
    EXPECT_EQ(Used, Buf.size());
  }
}

TEST(NetProtocolTest, VarintTruncationWantsMore) {
  std::vector<uint8_t> Buf;
  putVarint(Buf, uint64_t(1) << 40);
  uint64_t V = 0;
  size_t Used = 0;
  for (size_t N = 0; N + 1 < Buf.size(); ++N)
    EXPECT_EQ(getVarint(Buf.data(), N, V, Used), Decode::NeedMore);
}

TEST(NetProtocolTest, OverlongVarintIsError) {
  // Eleven continuation bytes: not a big number, garbage by definition.
  std::vector<uint8_t> Buf(11, 0x80);
  uint64_t V = 0;
  size_t Used = 0;
  EXPECT_EQ(getVarint(Buf.data(), Buf.size(), V, Used), Decode::Error);
}

//===----------------------------------------------------------------------===//
// Encode/decode round trips
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, RequestRoundTrip) {
  std::vector<uint8_t> Bytes = encodedRequest();
  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(Reader.next(F), Decode::Ok);
  ASSERT_EQ(F.type(), MsgType::CompileRequest);

  WireRequest Back;
  std::string Err;
  ASSERT_TRUE(decodeRequest(F.Payload, F.PayloadLen, Limits(), Back, Err))
      << Err;
  EXPECT_EQ(Back.ReqId, 42u);
  EXPECT_TRUE(Back.WantDump);
  EXPECT_EQ(Back.DeadlineMillis, 1500u);
  ASSERT_EQ(Back.Sources.size(), 2u);
  EXPECT_EQ(Back.Sources[0].FileName, "a.scala");
  EXPECT_EQ(Back.Sources[1].Text, "object B");
}

TEST(NetProtocolTest, ResponseRoundTrip) {
  WireResponse R;
  R.ReqId = 7;
  R.Status = WireStatus::DeadlineExceeded;
  R.HadErrors = true;
  R.QueueWaitMicros = 1234;
  R.FrontendMicros = 5678;
  R.DiagText = "deadline exceeded";
  R.DumpText = std::string(1000, 'x');
  std::vector<uint8_t> Bytes;
  encodeResponse(Bytes, R);

  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(Reader.next(F), Decode::Ok);
  WireResponse Back;
  std::string Err;
  ASSERT_TRUE(decodeResponse(F.Payload, F.PayloadLen, Back, Err)) << Err;
  EXPECT_EQ(Back.ReqId, 7u);
  EXPECT_EQ(Back.Status, WireStatus::DeadlineExceeded);
  EXPECT_TRUE(Back.HadErrors);
  EXPECT_EQ(Back.QueueWaitMicros, 1234u);
  EXPECT_EQ(Back.DumpText, R.DumpText);
}

TEST(NetProtocolTest, RetryAfterAndErrorRoundTrip) {
  WireRetryAfter RA{99, 250, "queue full"};
  std::vector<uint8_t> Bytes;
  encodeRetryAfter(Bytes, RA);
  WireProtocolError PE{ProtoErrCode::BadVersion, "v9"};
  encodeProtocolError(Bytes, PE);
  encodeBare(Bytes, MsgType::Goodbye);

  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  std::string Err;

  ASSERT_EQ(Reader.next(F), Decode::Ok);
  WireRetryAfter RABack;
  ASSERT_TRUE(decodeRetryAfter(F.Payload, F.PayloadLen, RABack, Err));
  EXPECT_EQ(RABack.ReqId, 99u);
  EXPECT_EQ(RABack.RetryAfterMillis, 250u);
  EXPECT_EQ(RABack.Reason, "queue full");

  ASSERT_EQ(Reader.next(F), Decode::Ok);
  WireProtocolError PEBack;
  ASSERT_TRUE(decodeProtocolError(F.Payload, F.PayloadLen, PEBack, Err));
  EXPECT_EQ(PEBack.Code, ProtoErrCode::BadVersion);

  ASSERT_EQ(Reader.next(F), Decode::Ok);
  EXPECT_EQ(F.type(), MsgType::Goodbye);
  EXPECT_EQ(F.PayloadLen, 0u);
}

//===----------------------------------------------------------------------===//
// Defensive framing
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, ByteAtATimeDelivery) {
  std::vector<uint8_t> Bytes = encodedRequest();
  encodeBare(Bytes, MsgType::Goodbye);
  size_t Frames = 0;
  EXPECT_EQ(drainAll(Bytes, 1, &Frames), Decode::NeedMore);
  EXPECT_EQ(Frames, 2u);
}

TEST(NetProtocolTest, ZeroLengthFrameIsError) {
  uint8_t Zero = 0;
  FrameReader Reader;
  Reader.feed(&Zero, 1);
  Frame F;
  EXPECT_EQ(Reader.next(F), Decode::Error);
  EXPECT_EQ(Reader.errorCode(), ProtoErrCode::MalformedFrame);
}

TEST(NetProtocolTest, OversizedLengthRejectedFromHeaderAlone) {
  // Declare a 1 GiB frame but send only the header: the cap must fire
  // without the reader ever buffering a body.
  std::vector<uint8_t> Header;
  putVarint(Header, uint64_t(1) << 30);
  FrameReader Reader;
  Reader.feed(Header.data(), Header.size());
  Frame F;
  EXPECT_EQ(Reader.next(F), Decode::Error);
  EXPECT_EQ(Reader.errorCode(), ProtoErrCode::FrameTooLarge);
  EXPECT_LT(Reader.buffered(), size_t(64));
}

TEST(NetProtocolTest, CustomFrameCapIsEnforced) {
  Limits Small;
  Small.MaxFrameBytes = 16;
  std::vector<uint8_t> Bytes = encodedRequest(); // well over 16 bytes
  FrameReader Reader(Small);
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  EXPECT_EQ(Reader.next(F), Decode::Error);
  EXPECT_EQ(Reader.errorCode(), ProtoErrCode::FrameTooLarge);
}

TEST(NetProtocolTest, UnknownMsgTypeIsTypedError) {
  std::vector<uint8_t> Bytes;
  putVarint(Bytes, 1);
  Bytes.push_back(0xEE); // no such type
  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  EXPECT_EQ(Reader.next(F), Decode::Error);
  EXPECT_EQ(Reader.errorCode(), ProtoErrCode::UnknownMsgType);
}

TEST(NetProtocolTest, RetiredKeepaliveTypesAreUnknown) {
  // Types 7 and 8 (the version-1 Ping/Pong keepalive) no longer exist.
  for (uint8_t Raw : {uint8_t(7), uint8_t(8)}) {
    std::vector<uint8_t> Bytes;
    putVarint(Bytes, 1);
    Bytes.push_back(Raw);
    FrameReader Reader;
    Reader.feed(Bytes.data(), Bytes.size());
    Frame F;
    EXPECT_EQ(Reader.next(F), Decode::Error) << "type " << int(Raw);
    EXPECT_EQ(Reader.errorCode(), ProtoErrCode::UnknownMsgType)
        << "type " << int(Raw);
  }
}

TEST(NetProtocolTest, PoisonedReaderStaysPoisoned) {
  uint8_t Zero = 0;
  FrameReader Reader;
  Reader.feed(&Zero, 1);
  Frame F;
  ASSERT_EQ(Reader.next(F), Decode::Error);
  // Even perfectly valid follow-up bytes cannot resynchronize a poisoned
  // stream — the reader must keep refusing.
  std::vector<uint8_t> Good = encodedRequest();
  Reader.feed(Good.data(), Good.size());
  EXPECT_EQ(Reader.next(F), Decode::Error);
}

TEST(NetProtocolTest, TruncatedPayloadFailsDecode) {
  std::vector<uint8_t> Bytes = encodedRequest();
  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(Reader.next(F), Decode::Ok);
  // Every strict prefix of the payload must fail (typed), never crash.
  WireRequest M;
  std::string Err;
  for (size_t N = 0; N < F.PayloadLen; ++N)
    EXPECT_FALSE(decodeRequest(F.Payload, N, Limits(), M, Err));
}

TEST(NetProtocolTest, TrailingBytesFailDecode) {
  std::vector<uint8_t> Bytes = encodedRequest();
  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(Reader.next(F), Decode::Ok);
  std::vector<uint8_t> Padded(F.Payload, F.Payload + F.PayloadLen);
  Padded.push_back(0x00);
  WireRequest M;
  std::string Err;
  EXPECT_FALSE(decodeRequest(Padded.data(), Padded.size(), Limits(), M, Err));
  EXPECT_EQ(Err, "trailing bytes after payload");
}

TEST(NetProtocolTest, LyingSourceCountFailsBeforeAllocating) {
  // Claim 2^40 sources in a tiny payload: the decoder must fail on the
  // count itself, not attempt a reserve.
  std::vector<uint8_t> Payload;
  putVarint(Payload, 1);       // ReqId
  Payload.push_back(0);        // flags
  putVarint(Payload, 0);       // deadline
  putVarint(Payload, uint64_t(1) << 40); // sources (lie)
  WireRequest M;
  std::string Err;
  EXPECT_FALSE(
      decodeRequest(Payload.data(), Payload.size(), Limits(), M, Err));
}

TEST(NetProtocolTest, UnknownRequestFlagBitsRejected) {
  std::vector<uint8_t> Payload;
  putVarint(Payload, 1);
  Payload.push_back(0x80); // undefined flag bit
  putVarint(Payload, 0);
  putVarint(Payload, 0);
  WireRequest M;
  std::string Err;
  EXPECT_FALSE(
      decodeRequest(Payload.data(), Payload.size(), Limits(), M, Err));
  EXPECT_EQ(Err, "unknown request flag bits");
}

TEST(NetProtocolTest, RetiredInteractiveFlagRejected) {
  // Flag bit 2 was the version-1 priority-lane request; it is undefined now.
  std::vector<uint8_t> Payload;
  putVarint(Payload, 1);
  Payload.push_back(2);
  putVarint(Payload, 0);
  putVarint(Payload, 0);
  WireRequest M;
  std::string Err;
  EXPECT_FALSE(
      decodeRequest(Payload.data(), Payload.size(), Limits(), M, Err));
  EXPECT_EQ(Err, "unknown request flag bits");
}

TEST(NetProtocolTest, SourceCountCapEnforced) {
  Limits Lim;
  Lim.MaxSources = 2;
  WireRequest Req;
  Req.ReqId = 1;
  for (int I = 0; I < 3; ++I)
    Req.Sources.push_back({"f", "t"});
  std::vector<uint8_t> Bytes;
  encodeRequest(Bytes, Req);
  FrameReader Reader;
  Reader.feed(Bytes.data(), Bytes.size());
  Frame F;
  ASSERT_EQ(Reader.next(F), Decode::Ok);
  WireRequest M;
  std::string Err;
  EXPECT_FALSE(decodeRequest(F.Payload, F.PayloadLen, Lim, M, Err));
  EXPECT_EQ(Err, "source count exceeds limit");
}

//===----------------------------------------------------------------------===//
// Fuzz-style sweeps (deterministic seeds; ASan job gives these teeth)
//===----------------------------------------------------------------------===//

TEST(NetProtocolTest, RandomGarbageNeverCrashesReader) {
  Rng R(0xF00D);
  for (int Round = 0; Round < 200; ++Round) {
    size_t Len = 1 + R.next() % 512;
    std::vector<uint8_t> Junk(Len);
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(R.next());
    size_t Chunk = 1 + R.next() % 17;
    drainAll(Junk, Chunk); // any terminal state is fine; crashing is not
  }
}

TEST(NetProtocolTest, MutatedValidFramesNeverCrashDecoders) {
  std::vector<uint8_t> Valid = encodedRequest();
  {
    WireResponse Resp;
    Resp.ReqId = 3;
    Resp.DiagText = "d";
    Resp.DumpText = "x";
    encodeResponse(Valid, Resp);
    encodeHello(Valid, WireHello{});
    encodeRetryAfter(Valid, WireRetryAfter{1, 2, "r"});
  }
  Rng R(0xBEEF);
  for (int Round = 0; Round < 500; ++Round) {
    std::vector<uint8_t> Mut = Valid;
    // Flip 1-4 random bytes.
    int Flips = 1 + int(R.next() % 4);
    for (int I = 0; I < Flips; ++I)
      Mut[R.next() % Mut.size()] ^= uint8_t(1 + R.next() % 255);

    FrameReader Reader;
    Reader.feed(Mut.data(), Mut.size());
    Frame F;
    Decode D;
    while ((D = Reader.next(F)) == Decode::Ok) {
      // Decode with the matching decoder; outcome is irrelevant, memory
      // safety is the assertion (ASan).
      std::string Err;
      switch (F.type()) {
      case MsgType::Hello: {
        WireHello M;
        decodeHello(F.Payload, F.PayloadLen, M, Err);
        break;
      }
      case MsgType::CompileRequest: {
        WireRequest M;
        decodeRequest(F.Payload, F.PayloadLen, Limits(), M, Err);
        break;
      }
      case MsgType::CompileResponse: {
        WireResponse M;
        decodeResponse(F.Payload, F.PayloadLen, M, Err);
        break;
      }
      case MsgType::RetryAfter: {
        WireRetryAfter M;
        decodeRetryAfter(F.Payload, F.PayloadLen, M, Err);
        break;
      }
      case MsgType::ProtocolError: {
        WireProtocolError M;
        decodeProtocolError(F.Payload, F.PayloadLen, M, Err);
        break;
      }
      default:
        break;
      }
    }
  }
}

TEST(NetProtocolTest, InterleavedPartialWritesReassemble) {
  // Many frames, fed in pathological splits (prime-sized chunks), must
  // reassemble to exactly the frames that were encoded.
  std::vector<uint8_t> Bytes;
  const int N = 50;
  for (int I = 0; I < N; ++I) {
    WireRetryAfter RA{uint64_t(I), uint64_t(I * 3), std::string(I, 'r')};
    encodeRetryAfter(Bytes, RA);
  }
  for (size_t Chunk : {size_t(1), size_t(3), size_t(7), size_t(13)}) {
    FrameReader Reader;
    size_t Seen = 0;
    for (size_t At = 0; At < Bytes.size(); At += Chunk) {
      size_t Len = std::min(Chunk, Bytes.size() - At);
      Reader.feed(Bytes.data() + At, Len);
      Frame F;
      while (Reader.next(F) == Decode::Ok) {
        WireRetryAfter Back;
        std::string Err;
        ASSERT_TRUE(decodeRetryAfter(F.Payload, F.PayloadLen, Back, Err));
        ASSERT_EQ(Back.ReqId, Seen);
        ASSERT_EQ(Back.Reason.size(), Seen);
        ++Seen;
      }
    }
    EXPECT_EQ(Seen, size_t(N));
  }
}

//===----------------------------------------------------------------------===//
// Socket-level: a live server vs. hostile byte streams
//===----------------------------------------------------------------------===//

namespace {

/// In-process server on an ephemeral port for hostile-peer tests.
struct ServerFixture {
  CompileServer Server;
  uint16_t Port = 0;

  explicit ServerFixture(ServerConfig Cfg = smallConfig())
      : Server(std::move(Cfg)) {
    std::string Err;
    EXPECT_TRUE(Server.start(Err)) << Err;
    Port = Server.port();
  }

  static ServerConfig smallConfig() {
    ServerConfig Cfg;
    Cfg.Service.Threads = 2;
    return Cfg;
  }
};

/// Sends raw bytes, then reads frames until the peer closes; returns the
/// frames' types (and the last ProtocolError code seen, if any).
struct RawPeerResult {
  std::vector<MsgType> Types;
  bool SawClose = false;
  WireProtocolError LastErr;
  bool SawProtoError = false;
};

RawPeerResult rawExchange(uint16_t Port, const std::vector<uint8_t> &Send) {
  RawPeerResult Out;
  std::string Err;
  Socket S = connectTcp(Port, 2000, Err);
  EXPECT_TRUE(S.valid()) << Err;
  if (!S.valid())
    return Out;
  EXPECT_TRUE(sendAll(S.fd(), Send.data(), Send.size(), 2000));

  FrameReader Reader;
  uint8_t Buf[4096];
  for (;;) {
    Frame F;
    Decode D;
    while ((D = Reader.next(F)) == Decode::Ok) {
      Out.Types.push_back(F.type());
      if (F.type() == MsgType::ProtocolError) {
        std::string DecErr;
        Out.SawProtoError =
            decodeProtocolError(F.Payload, F.PayloadLen, Out.LastErr, DecErr);
      }
    }
    if (D == Decode::Error)
      break;
    size_t Got = 0;
    RecvStatus RS = recvSome(S.fd(), Buf, sizeof(Buf), Got, 3000);
    if (RS == RecvStatus::Data) {
      Reader.feed(Buf, Got);
      continue;
    }
    Out.SawClose = RS == RecvStatus::Closed;
    break;
  }
  return Out;
}

std::vector<uint8_t> helloBytes() {
  std::vector<uint8_t> Out;
  encodeHello(Out, WireHello{});
  return Out;
}

/// After a hostile exchange the server must still serve: one good
/// compile through the real client proves it.
void expectServerStillServes(uint16_t Port) {
  ClientConfig CC;
  CC.Port = Port;
  CompileClient Client(CC);
  std::string Err;
  ASSERT_TRUE(Client.connect(Err)) << Err;
  WireRequest Req;
  Req.ReqId = 1;
  Req.Sources.push_back({"ok.scala", "object Ok { def f() = 1 }"});
  WireResponse Resp;
  ASSERT_TRUE(Client.compile(Req, Resp, Err)) << Err;
  EXPECT_EQ(Resp.Status, WireStatus::Ok);
  Client.close();
}

} // namespace

TEST(NetProtocolTest, ServerRejectsGarbageWithTypedErrorAndSurvives) {
  ServerFixture Fx;
  std::vector<uint8_t> Junk(64, 0x00); // first byte: zero-length frame
  RawPeerResult R = rawExchange(Fx.Port, Junk);
  ASSERT_TRUE(R.SawProtoError);
  EXPECT_EQ(R.LastErr.Code, ProtoErrCode::MalformedFrame);
  EXPECT_TRUE(R.SawClose);
  expectServerStillServes(Fx.Port);
  EXPECT_GE(Fx.Server.snapshot().ProtocolErrors, 1u);
}

TEST(NetProtocolTest, ServerRejectsOversizedDeclaredFrame) {
  ServerFixture Fx;
  std::vector<uint8_t> Bytes = helloBytes();
  putVarint(Bytes, uint64_t(1) << 33); // an 8 GiB frame, allegedly
  RawPeerResult R = rawExchange(Fx.Port, Bytes);
  ASSERT_TRUE(R.SawProtoError);
  EXPECT_EQ(R.LastErr.Code, ProtoErrCode::FrameTooLarge);
  EXPECT_TRUE(R.SawClose);
  expectServerStillServes(Fx.Port);
}

TEST(NetProtocolTest, ServerRejectsUnknownMsgType) {
  ServerFixture Fx;
  std::vector<uint8_t> Bytes = helloBytes();
  putVarint(Bytes, 1);
  Bytes.push_back(0x7F);
  RawPeerResult R = rawExchange(Fx.Port, Bytes);
  ASSERT_TRUE(R.SawProtoError);
  EXPECT_EQ(R.LastErr.Code, ProtoErrCode::UnknownMsgType);
  expectServerStillServes(Fx.Port);
}

TEST(NetProtocolTest, ServerRequiresHelloFirst) {
  ServerFixture Fx;
  WireRequest Req;
  Req.ReqId = 1;
  Req.Sources.push_back({"x", "object X"});
  std::vector<uint8_t> Bytes;
  encodeRequest(Bytes, Req); // no Hello
  RawPeerResult R = rawExchange(Fx.Port, Bytes);
  ASSERT_TRUE(R.SawProtoError);
  EXPECT_EQ(R.LastErr.Code, ProtoErrCode::HelloRequired);
  expectServerStillServes(Fx.Port);
}

TEST(NetProtocolTest, ServerRejectsBadMagicAndBadVersion) {
  ServerFixture Fx;
  {
    std::vector<uint8_t> Bytes = helloBytes();
    Bytes[Bytes.size() - 5] = 'X'; // corrupt first magic byte
    RawPeerResult R = rawExchange(Fx.Port, Bytes);
    ASSERT_TRUE(R.SawProtoError);
    EXPECT_EQ(R.LastErr.Code, ProtoErrCode::BadMagic);
  }
  {
    std::vector<uint8_t> Bytes;
    encodeHello(Bytes, WireHello{ProtocolVersion + 7});
    RawPeerResult R = rawExchange(Fx.Port, Bytes);
    ASSERT_TRUE(R.SawProtoError);
    EXPECT_EQ(R.LastErr.Code, ProtoErrCode::BadVersion);
  }
  expectServerStillServes(Fx.Port);
}

TEST(NetProtocolTest, ServerRefusesVersionOneHello) {
  // A version-1 peer may send keepalives or the priority flag, so the
  // version-2 server refuses it at the handshake.
  ServerFixture Fx;
  std::vector<uint8_t> Bytes;
  encodeHello(Bytes, WireHello{1});
  RawPeerResult R = rawExchange(Fx.Port, Bytes);
  ASSERT_TRUE(R.SawProtoError);
  EXPECT_EQ(R.LastErr.Code, ProtoErrCode::BadVersion);
  EXPECT_TRUE(R.SawClose);
  expectServerStillServes(Fx.Port);
}

TEST(NetProtocolTest, TruncatedHeaderThenHangupLeavesServerHealthy) {
  ServerFixture Fx;
  for (int Round = 0; Round < 5; ++Round) {
    std::string Err;
    Socket S = connectTcp(Fx.Port, 2000, Err);
    ASSERT_TRUE(S.valid()) << Err;
    // Half a hello, then vanish mid-frame.
    std::vector<uint8_t> Bytes = helloBytes();
    ASSERT_TRUE(sendAll(S.fd(), Bytes.data(), Bytes.size() / 2, 2000));
    S.close();
  }
  expectServerStillServes(Fx.Port);
}

TEST(NetProtocolTest, RandomGarbagePeersNeverKillServer) {
  ServerFixture Fx;
  Rng R(0xDEAD);
  for (int Round = 0; Round < 10; ++Round) {
    size_t Len = 1 + R.next() % 256;
    std::vector<uint8_t> Junk(Len);
    for (uint8_t &B : Junk)
      B = static_cast<uint8_t>(R.next());
    rawExchange(Fx.Port, Junk);
  }
  expectServerStillServes(Fx.Port);
}
