// Protocol fuzzing against a live in-process server: random garbage,
// truncated and oversized length prefixes, corrupted checksums, bad
// handshakes, and mutated valid traffic are thrown at qfserverd's wire
// layer (network/protocol.h, network/server.h). The contract under fuzz:
// every hostile input draws a typed ERROR frame and/or a disconnect —
// never a crash, a hang, or a poisoned server. The suite runs in the
// ASan and TSan CI jobs, where "no leak, no race" is machine-checked.
#include <sys/socket.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/rng.h"
#include "common/status.h"
#include "network/client.h"
#include "network/protocol.h"
#include "network/server.h"
#include "network/socket.h"

namespace qf {
namespace {

std::string RandomBytes(Rng& rng, std::size_t length) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out += static_cast<char>(rng.NextBelow(256));
  }
  return out;
}

// Writes raw bytes, ignoring failures (the server may already have hung
// up on earlier garbage — that is a pass, not an error).
void WriteRaw(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) return;
    sent += static_cast<std::size_t>(n);
  }
}

// Drains the connection: any frames the server sends must decode (they
// do by construction of ReadFrame), and the stream must end — with a
// clean EOF or a reset, never a hang (the test would time out). Returns
// the number of ERROR frames seen.
int DrainToDisconnect(int fd) {
  int errors = 0;
  for (int i = 0; i < 64; ++i) {
    ReadEvent event = ReadFrame(fd);
    if (event.kind == ReadEvent::Kind::kFrame) {
      if (event.frame.type == FrameType::kError) {
        // Typed: the body must decode to a real status.
        Status status = DecodeErrorBody(event.frame.body);
        EXPECT_FALSE(status.ok());
        ++errors;
      }
      continue;
    }
    // kEof (clean) or kError (reset after we wrote into a closed
    // socket) both mean the server cut the conversation.
    return errors;
  }
  ADD_FAILURE() << "server kept talking instead of disconnecting";
  return errors;
}

class ProtocolFuzzTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;
    Result<std::unique_ptr<Server>> server = Server::Start(std::move(options));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    server_ = std::move(*server);
  }

  // The server must still serve honest clients after the abuse.
  void TearDown() override {
    Result<Client> client = Client::Connect("127.0.0.1", server_->port());
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    Result<std::string> out = client->Execute("HELP");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
  }

  int Connect() {
    Result<int> fd = TcpConnect("127.0.0.1", server_->port());
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.ok() ? *fd : -1;
  }

  std::unique_ptr<Server> server_;
};

TEST_P(ProtocolFuzzTest, RandomGarbage) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 25; ++i) {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    WriteRaw(fd, RandomBytes(rng, 1 + rng.NextBelow(300)));
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

TEST_P(ProtocolFuzzTest, HostileLengthPrefixes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 100);
  for (int i = 0; i < 25; ++i) {
    std::string wire;
    switch (rng.NextBelow(3)) {
      case 0:  // oversized: must be rejected before any allocation
        PutU32(wire, kMaxPayloadBytes + 1 + rng.NextUint32() / 2);
        PutU32(wire, rng.NextUint32());
        break;
      case 1:  // undersized: shorter than [type][request id]
        PutU32(wire, rng.NextBelow(kMinPayloadBytes));
        PutU32(wire, rng.NextUint32());
        wire += RandomBytes(rng, kMinPayloadBytes);
        break;
      default:  // truncated: a valid frame cut mid-payload
        wire = EncodeFrame({FrameType::kHello, 0, EncodeHelloBody()});
        wire.resize(1 + rng.NextBelow(
                            static_cast<std::uint32_t>(wire.size() - 1)));
        break;
    }
    int fd = Connect();
    ASSERT_GE(fd, 0);
    WriteRaw(fd, wire);
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

TEST_P(ProtocolFuzzTest, CorruptChecksumsAndBadHandshakes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 200);
  std::string hello = EncodeFrame({FrameType::kHello, 0, EncodeHelloBody()});
  for (int i = 0; i < 25; ++i) {
    std::string wire = hello;
    // Flip a byte anywhere: header corruption bends the length or CRC
    // fields, payload corruption fails the checksum, and a corrupted
    // HELLO body draws the handshake's typed rejection.
    std::size_t pos = rng.NextBelow(static_cast<std::uint32_t>(wire.size()));
    wire[pos] = static_cast<char>(wire[pos] ^ (1 + rng.NextBelow(255)));
    int fd = Connect();
    ASSERT_GE(fd, 0);
    WriteRaw(fd, wire);
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

TEST_P(ProtocolFuzzTest, GarbageAfterValidHandshake) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 300);
  for (int i = 0; i < 25; ++i) {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteFrame(fd, {FrameType::kHello, 0, EncodeHelloBody()}).ok());
    ReadEvent welcome = ReadFrame(fd);
    ASSERT_EQ(welcome.kind, ReadEvent::Kind::kFrame);
    ASSERT_EQ(welcome.frame.type, FrameType::kWelcome);
    // Sometimes a legitimate statement first, then garbage mid-session.
    if (rng.NextBernoulli(0.5)) {
      WriteRaw(fd, EncodeFrame({FrameType::kStmt, 1, "HELP"}));
    }
    if (rng.NextBernoulli(0.5)) {
      // An unknown-but-well-framed type.
      WriteRaw(fd, EncodeFrame(
                       {static_cast<FrameType>(10 + rng.NextBelow(200)), 2,
                        RandomBytes(rng, rng.NextBelow(40))}));
    } else {
      WriteRaw(fd, RandomBytes(rng, 1 + rng.NextBelow(200)));
    }
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

TEST_P(ProtocolFuzzTest, MutatedValidTraffic) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 400);
  std::string script =
      EncodeFrame({FrameType::kHello, 0, EncodeHelloBody()}) +
      EncodeFrame({FrameType::kStmt, 1,
                   "GEN BASKETS b n_baskets=10 n_items=5 seed=1"}) +
      EncodeFrame({FrameType::kStmt, 2, "SHOW RELATIONS"}) +
      EncodeFrame({FrameType::kBye, 3, ""});
  for (int i = 0; i < 20; ++i) {
    std::string wire = script;
    int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int m = 0; m < mutations; ++m) {
      std::size_t pos =
          rng.NextBelow(static_cast<std::uint32_t>(wire.size()));
      if (rng.NextBernoulli(0.3)) {
        wire.resize(pos + 1);  // truncate mid-stream
      } else {
        wire[pos] = static_cast<char>(wire[pos] ^ (1 + rng.NextBelow(255)));
      }
    }
    int fd = Connect();
    ASSERT_GE(fd, 0);
    WriteRaw(fd, wire);
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

// --- protocol v2 surface: RESUME bodies, session tokens, heartbeats ---

TEST_P(ProtocolFuzzTest, ResumeFrameFuzz) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  for (int i = 0; i < 25; ++i) {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteFrame(fd, {FrameType::kHello, 0, EncodeHelloBody()}).ok());
    ReadEvent welcome = ReadFrame(fd);
    ASSERT_EQ(welcome.kind, ReadEvent::Kind::kFrame);
    ASSERT_EQ(welcome.frame.type, FrameType::kWelcome);
    // Hostile RESUME bodies: empty, truncated, oversized, random bytes,
    // well-formed with a random session id and token (a guessing
    // attacker), and well-formed with id 0 / token 0.
    std::string body;
    switch (rng.NextBelow(5)) {
      case 0:
        break;  // empty
      case 1:
        body = RandomBytes(rng, rng.NextBelow(16));  // short / misaligned
        break;
      case 2:
        body = RandomBytes(rng, 16 + rng.NextBelow(64));  // oversized
        break;
      case 3:
        PutU64(body, rng.NextUint32());  // guessed session id
        PutU64(body, (static_cast<std::uint64_t>(rng.NextUint32()) << 32) |
                            rng.NextUint32());  // guessed token
        break;
      default:
        PutU64(body, 0);
        PutU64(body, 0);
        break;
    }
    WriteRaw(fd, EncodeFrame({FrameType::kResume, 1, body}));
    // The server answers a typed ERROR (NOT_FOUND for a wrong identity,
    // INVALID_ARGUMENT for a malformed body) and keeps the conversation
    // alive on the fresh session — a statement must still work.
    WriteRaw(fd, EncodeFrame({FrameType::kStmt, 2, "HELP"}));
    ::shutdown(fd, SHUT_WR);
    int errors = DrainToDisconnect(fd);
    EXPECT_GE(errors, 1);
    CloseFd(fd);
  }
}

TEST_P(ProtocolFuzzTest, HeartbeatAndServerOnlyFramesFromClients) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 600);
  for (int i = 0; i < 25; ++i) {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(WriteFrame(fd, {FrameType::kHello, 0, EncodeHelloBody()}).ok());
    ReadEvent welcome = ReadFrame(fd);
    ASSERT_EQ(welcome.kind, ReadEvent::Kind::kFrame);
    ASSERT_EQ(welcome.frame.type, FrameType::kWelcome);
    // Client heartbeats (empty or with garbage bodies) must be ignored;
    // server-only frames (WELCOME, RESULT, PONG, RESUMED) from a client
    // draw a typed error and/or a disconnect — never a crash or hang.
    for (int burst = 0; burst < 4; ++burst) {
      if (rng.NextBernoulli(0.5)) {
        WriteRaw(fd, EncodeFrame({FrameType::kHeartbeat,
                                  rng.NextBelow(3),
                                  RandomBytes(rng, rng.NextBelow(12))}));
      } else {
        FrameType server_only[] = {FrameType::kWelcome, FrameType::kResult,
                                   FrameType::kPong, FrameType::kResumed};
        WriteRaw(fd, EncodeFrame({server_only[rng.NextBelow(4)], burst,
                                  RandomBytes(rng, rng.NextBelow(20))}));
      }
    }
    WriteRaw(fd, EncodeFrame({FrameType::kStmt, 9, "HELP"}));
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

TEST_P(ProtocolFuzzTest, VersionMismatchHandshakes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 700);
  // Unsupported versions draw FAILED_PRECONDITION and a disconnect.
  for (std::uint32_t version :
       {0u, kProtocolVersion + 1, kProtocolVersion + 7,
        rng.NextUint32() | (kProtocolVersion + 1)}) {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    WriteRaw(fd, EncodeFrame({FrameType::kHello, 0, EncodeHelloBody(version)}));
    ReadEvent event = ReadFrame(fd);
    ASSERT_EQ(event.kind, ReadEvent::Kind::kFrame);
    ASSERT_EQ(event.frame.type, FrameType::kError);
    EXPECT_EQ(DecodeErrorBody(event.frame.body).code(),
              StatusCode::kFailedPrecondition);
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
  // A v1 client sending v2 frames (RESUME, HEARTBEAT): the server may
  // ignore or reject them, but the conversation must not hang and the
  // v1 session must keep answering statements.
  for (int i = 0; i < 10; ++i) {
    int fd = Connect();
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(
        WriteFrame(fd, {FrameType::kHello, 0, EncodeHelloBody(1)}).ok());
    ReadEvent welcome = ReadFrame(fd);
    ASSERT_EQ(welcome.kind, ReadEvent::Kind::kFrame);
    ASSERT_EQ(welcome.frame.type, FrameType::kWelcome);
    Result<Welcome> decoded = DecodeWelcomeBody(welcome.frame.body);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->version, 1u);
    EXPECT_EQ(decoded->resume_token, 0u);
    std::string body;
    PutU64(body, decoded->session_id);
    PutU64(body, rng.NextUint32());
    WriteRaw(fd, EncodeFrame({FrameType::kResume, 1, body}));
    WriteRaw(fd, EncodeFrame({FrameType::kHeartbeat, 0, ""}));
    WriteRaw(fd, EncodeFrame({FrameType::kStmt, 2, "HELP"}));
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

TEST_P(ProtocolFuzzTest, MutatedV2Traffic) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 800);
  // A realistic v2 conversation — handshake, statement, reconnect-style
  // RESUME attempt, heartbeat, BYE — with random bit flips and
  // truncations anywhere in the byte stream.
  std::string resume_body;
  PutU64(resume_body, 12345);
  PutU64(resume_body, 0x5EED5EED5EED5EEDull);
  std::string script =
      EncodeFrame({FrameType::kHello, 0, EncodeHelloBody()}) +
      EncodeFrame({FrameType::kStmt, 1,
                   "GEN BASKETS b n_baskets=10 n_items=5 seed=1"}) +
      EncodeFrame({FrameType::kResume, 2, resume_body}) +
      EncodeFrame({FrameType::kHeartbeat, 0, ""}) +
      EncodeFrame({FrameType::kBye, 3, ""});
  for (int i = 0; i < 20; ++i) {
    std::string wire = script;
    int mutations = 1 + static_cast<int>(rng.NextBelow(4));
    for (int m = 0; m < mutations; ++m) {
      std::size_t pos =
          rng.NextBelow(static_cast<std::uint32_t>(wire.size()));
      if (rng.NextBernoulli(0.3)) {
        wire.resize(pos + 1);  // truncate mid-stream
      } else {
        wire[pos] = static_cast<char>(wire[pos] ^ (1 + rng.NextBelow(255)));
      }
    }
    int fd = Connect();
    ASSERT_GE(fd, 0);
    WriteRaw(fd, wire);
    ::shutdown(fd, SHUT_WR);
    DrainToDisconnect(fd);
    CloseFd(fd);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolFuzzTest, ::testing::Range(1, 4));

}  // namespace
}  // namespace qf
