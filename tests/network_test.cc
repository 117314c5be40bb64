// Tests for the qfserverd wire protocol and the server/client pair
// (network/protocol.h, network/server.h, network/client.h): frame
// codec round-trips and poisoned-stream detection, the versioned
// handshake, statement round-trips with typed error frames, per-session
// catalog isolation over the shared copy-on-write base database, and the
// PING/STATS/BYE side channels.
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "common/status.h"
#include "common/vfs.h"
#include "network/client.h"
#include "network/fault_socket.h"
#include "network/protocol.h"
#include "network/server.h"
#include "incremental_diff_harness.h"
#include "network/socket.h"
#include "relational/tsv.h"
#include "shell/shell.h"

namespace qf {
namespace {

std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
  options.port = 0;
  Result<std::unique_ptr<Server>> server = Server::Start(std::move(options));
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return server.ok() ? std::move(*server) : nullptr;
}

Client MustConnect(const Server& server) {
  Result<Client> client = Client::Connect("127.0.0.1", server.port());
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return client.ok() ? std::move(*client) : Client();
}

// ------------------------------------------------------------- codec

TEST(ProtocolTest, FrameRoundTrip) {
  Frame frame;
  frame.type = FrameType::kStmt;
  frame.request_id = 0x0123456789abcdefULL;
  frame.body = "RUN pairs;";
  std::string wire = EncodeFrame(frame);
  DecodeOutcome out = DecodeFrame(wire);
  ASSERT_TRUE(out.status.ok()) << out.status.ToString();
  EXPECT_FALSE(out.need_more);
  EXPECT_EQ(out.consumed, wire.size());
  EXPECT_EQ(out.frame.type, FrameType::kStmt);
  EXPECT_EQ(out.frame.request_id, frame.request_id);
  EXPECT_EQ(out.frame.body, frame.body);
}

TEST(ProtocolTest, DecodeLeavesTrailingBytes) {
  Frame a{FrameType::kPing, 1, ""};
  Frame b{FrameType::kPong, 2, ""};
  std::string wire = EncodeFrame(a) + EncodeFrame(b);
  DecodeOutcome first = DecodeFrame(wire);
  ASSERT_TRUE(first.status.ok());
  EXPECT_EQ(first.frame.request_id, 1u);
  DecodeOutcome second = DecodeFrame(
      std::string_view(wire).substr(first.consumed));
  ASSERT_TRUE(second.status.ok());
  EXPECT_EQ(second.frame.request_id, 2u);
  EXPECT_EQ(first.consumed + second.consumed, wire.size());
}

TEST(ProtocolTest, TruncatedFramesNeedMore) {
  std::string wire = EncodeFrame({FrameType::kStmt, 7, "HELP"});
  for (std::size_t n = 0; n < wire.size(); ++n) {
    DecodeOutcome out = DecodeFrame(std::string_view(wire).substr(0, n));
    EXPECT_TRUE(out.need_more) << "prefix length " << n;
    EXPECT_TRUE(out.status.ok()) << "prefix length " << n;
  }
}

TEST(ProtocolTest, OversizedLengthIsRejectedBeforeBuffering) {
  std::string wire;
  PutU32(wire, kMaxPayloadBytes + 1);
  PutU32(wire, 0);
  // No body bytes needed: the length prefix alone poisons the stream.
  DecodeOutcome out = DecodeFrame(wire);
  EXPECT_FALSE(out.need_more);
  EXPECT_FALSE(out.status.ok());
  EXPECT_EQ(out.status.code(), StatusCode::kInvalidArgument);
}

TEST(ProtocolTest, UndersizedLengthIsRejected) {
  std::string wire;
  PutU32(wire, static_cast<std::uint32_t>(kMinPayloadBytes) - 1);
  PutU32(wire, 0);
  wire.append(kMinPayloadBytes - 1, 'x');
  DecodeOutcome out = DecodeFrame(wire);
  EXPECT_FALSE(out.status.ok());
}

TEST(ProtocolTest, CorruptPayloadFailsChecksum) {
  std::string wire = EncodeFrame({FrameType::kStmt, 7, "SHOW RELATIONS"});
  for (std::size_t i = kFrameHeaderBytes; i < wire.size(); ++i) {
    std::string bent = wire;
    bent[i] = static_cast<char>(bent[i] ^ 0x20);
    DecodeOutcome out = DecodeFrame(bent);
    EXPECT_FALSE(out.status.ok()) << "flipped byte " << i;
  }
}

TEST(ProtocolTest, UnknownFrameTypeIsRejected) {
  std::string wire = EncodeFrame({static_cast<FrameType>(0x7f), 1, ""});
  DecodeOutcome out = DecodeFrame(wire);
  EXPECT_FALSE(out.status.ok());
  EXPECT_FALSE(IsKnownFrameType(0x7f));
  EXPECT_TRUE(IsKnownFrameType(static_cast<std::uint8_t>(FrameType::kStmt)));
}

TEST(ProtocolTest, ErrorBodyRoundTripsTypedStatus) {
  Status in = OverloadedError("admission queue full (64 statements)");
  Status out = DecodeErrorBody(EncodeErrorBody(in));
  EXPECT_EQ(out.code(), StatusCode::kOverloaded);
  EXPECT_EQ(out.message(), in.message());
  // Unknown code bytes and empty bodies map to INTERNAL, not UB.
  EXPECT_EQ(DecodeErrorBody(std::string("\xee message")).code(),
            StatusCode::kInternal);
  EXPECT_EQ(DecodeErrorBody("").code(), StatusCode::kInternal);
}

TEST(ProtocolTest, HelloAndWelcomeBodies) {
  Result<std::uint32_t> negotiated = CheckHelloBody(EncodeHelloBody());
  ASSERT_TRUE(negotiated.ok());
  EXPECT_EQ(*negotiated, kProtocolVersion);
  // Every version in the supported window negotiates to itself.
  for (std::uint32_t v = kMinProtocolVersion; v <= kProtocolVersion; ++v) {
    Result<std::uint32_t> n = CheckHelloBody(EncodeHelloBody(v));
    ASSERT_TRUE(n.ok()) << "version " << v;
    EXPECT_EQ(*n, v);
  }
  EXPECT_EQ(CheckHelloBody("").status().code(), StatusCode::kInvalidArgument);

  std::string wrong_magic;
  PutU32(wrong_magic, 0xdeadbeefu);
  PutU32(wrong_magic, kProtocolVersion);
  EXPECT_EQ(CheckHelloBody(wrong_magic).status().code(),
            StatusCode::kInvalidArgument);

  for (std::uint32_t bad : {kMinProtocolVersion - 1, kProtocolVersion + 1}) {
    std::string wrong_version;
    PutU32(wrong_version, kProtocolMagic);
    PutU32(wrong_version, bad);
    EXPECT_EQ(CheckHelloBody(wrong_version).status().code(),
              StatusCode::kFailedPrecondition)
        << "version " << bad;
  }

  // v1 WELCOME: 12 bytes, no token; v2: 20 bytes with the token.
  Welcome v1{1, 42, 0};
  std::string v1_body = EncodeWelcomeBody(v1);
  EXPECT_EQ(v1_body.size(), 12u);
  Result<Welcome> v1_back = DecodeWelcomeBody(v1_body);
  ASSERT_TRUE(v1_back.ok());
  EXPECT_EQ(v1_back->session_id, 42u);
  EXPECT_EQ(v1_back->resume_token, 0u);

  Welcome v2{2, 42, 0xfeedfacecafef00dULL};
  std::string v2_body = EncodeWelcomeBody(v2);
  EXPECT_EQ(v2_body.size(), 20u);
  Result<Welcome> v2_back = DecodeWelcomeBody(v2_body);
  ASSERT_TRUE(v2_back.ok());
  EXPECT_EQ(v2_back->session_id, 42u);
  EXPECT_EQ(v2_back->resume_token, v2.resume_token);
  // A v2 WELCOME truncated to v1 size is rejected, not misread.
  EXPECT_FALSE(DecodeWelcomeBody(v2_body.substr(0, 12)).ok());
}

TEST(ProtocolTest, ResumeBodyRoundTrip) {
  ResumeRequest in{77, 0x123456789abcdef0ULL};
  Result<ResumeRequest> out = DecodeResumeBody(EncodeResumeBody(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->session_id, in.session_id);
  EXPECT_EQ(out->resume_token, in.resume_token);
  EXPECT_EQ(DecodeResumeBody("short").status().code(),
            StatusCode::kInvalidArgument);
}

// ------------------------------------------------------- live server

TEST(ServerTest, StatementRoundTrip) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  Result<std::string> out =
      client.Execute("GEN BASKETS b n_baskets=30 n_items=8 seed=3");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("generated b"), std::string::npos);
  out = client.Execute("SHOW RELATIONS");
  ASSERT_TRUE(out.ok());
  EXPECT_NE(out->find("b("), std::string::npos);
}

TEST(ServerTest, ErrorsComeBackTyped) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  Result<std::string> out = client.Execute("RUN missing");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kNotFound);
  // The session survives its own errors.
  EXPECT_TRUE(client.Execute("HELP").ok());
}

TEST(ServerTest, DeadlineExceededPropagates) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  ASSERT_TRUE(
      client
          .Execute(
              "GEN BASKETS mb n_baskets=2000 n_items=100 avg_size=8 seed=9")
          .ok());
  ASSERT_TRUE(client.Execute("SET TIMEOUT 1").ok());
  Result<std::string> out = client.Execute("MAXIMAL mb SUPPORT 5");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(ServerTest, SessionsAreIsolated) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client a = MustConnect(*server);
  Client b = MustConnect(*server);
  ASSERT_TRUE(a.Execute("GEN BASKETS mine n_baskets=10 n_items=5 seed=1").ok());
  // a's relation is invisible to b; b's SHOW doesn't list it.
  Result<std::string> shown = b.Execute("SHOW RELATIONS");
  ASSERT_TRUE(shown.ok());
  EXPECT_EQ(shown->find("mine"), std::string::npos);
  EXPECT_EQ(b.Execute("SHOW mine").status().code(), StatusCode::kNotFound);
  // a's knobs are a's alone.
  ASSERT_TRUE(a.Execute("SET TIMEOUT 123").ok());
  EXPECT_TRUE(b.Execute("MAXIMAL mine SUPPORT 2").status().code() ==
              StatusCode::kNotFound);
}

TEST(ServerTest, SessionsSeeSharedBaseDatabase) {
  Shell seed;
  ASSERT_TRUE(
      seed.Execute("GEN BASKETS base n_baskets=40 n_items=8 seed=6").ok());
  ServerOptions options;
  options.base_db = seed.database();
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  Client a = MustConnect(*server);
  Client b = MustConnect(*server);
  for (Client* c : {&a, &b}) {
    Result<std::string> out = c->Execute(
        "FLOCK p QUERY answer(B) :- base(B,$1) FILTER COUNT >= 2");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    out = c->Execute("RUN p DIRECT LIMIT 2");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_NE(out->find("rows"), std::string::npos);
  }
}

TEST(ServerTest, AppendInOneSessionLeavesSharedBaseUntouched) {
  // Regression: LOAD ... APPEND goes through AppendRelation (a fresh
  // relation built from the COW-shared payload), never a mutation of the
  // shared rows — so a neighbour session's counts and the seed database
  // itself must be unaffected by another session's appends.
  Shell seed;
  ASSERT_TRUE(
      seed.Execute("GEN BASKETS base n_baskets=30 n_items=6 seed=9").ok());
  std::size_t seed_rows = seed.database().Get("base").size();

  MemVfs vfs;
  Relation delta("delta", Schema({"BID", "Item"}));
  delta.AddRow({Value(500), Value(0)});
  delta.AddRow({Value(500), Value(1)});
  ASSERT_TRUE(StoreTsv(delta, "delta.tsv", &vfs).ok());

  ServerOptions options;
  options.base_db = seed.database();
  options.session_vfs = &vfs;
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  Client a = MustConnect(*server);
  Client b = MustConnect(*server);
  const std::string flock_stmt =
      "FLOCK p QUERY answer(B) :- base(B,$1) FILTER COUNT >= 2";
  ASSERT_TRUE(a.Execute(flock_stmt).ok());
  ASSERT_TRUE(b.Execute(flock_stmt).ok());
  Result<std::string> b_before = b.Execute("RUN p LIMIT 100000");
  ASSERT_TRUE(b_before.ok()) << b_before.status().ToString();

  Result<std::string> appended = a.Execute("LOAD base APPEND FROM delta.tsv");
  ASSERT_TRUE(appended.ok()) << appended.status().ToString();
  EXPECT_NE(appended->find("+2 rows"), std::string::npos);

  // Session a sees the appended rows...
  Result<std::string> a_shown = a.Execute("SHOW base");
  ASSERT_TRUE(a_shown.ok());
  EXPECT_NE(a_shown->find(std::to_string(seed_rows + 2) + " rows"),
            std::string::npos);
  // ...while b's copy, b's counts, and the seed database are unchanged.
  Result<std::string> b_shown = b.Execute("SHOW base");
  ASSERT_TRUE(b_shown.ok());
  EXPECT_NE(b_shown->find(std::to_string(seed_rows) + " rows"),
            std::string::npos);
  Result<std::string> b_after = b.Execute("RUN p LIMIT 100000");
  ASSERT_TRUE(b_after.ok());
  EXPECT_EQ(NormalizeRunOutput(*b_before), NormalizeRunOutput(*b_after));
  EXPECT_EQ(seed.database().Get("base").size(), seed_rows);
  // A session connecting after the append still starts from the
  // pristine base.
  Client c = MustConnect(*server);
  ASSERT_TRUE(c.Execute(flock_stmt).ok());
  Result<std::string> c_shown = c.Execute("SHOW base");
  ASSERT_TRUE(c_shown.ok());
  EXPECT_NE(c_shown->find(std::to_string(seed_rows) + " rows"),
            std::string::npos);
}

TEST(ServerTest, SessionCatalogMutationsAreDurable) {
  MemVfs vfs;
  ServerOptions options;
  options.session_vfs = &vfs;
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  {
    Client client = MustConnect(*server);
    ASSERT_TRUE(client.Execute("OPEN cat").ok());
    // WAL-before-ack: once this reply arrives the mutation is fsynced.
    ASSERT_TRUE(
        client.Execute("GEN BASKETS b n_baskets=20 n_items=6 seed=2").ok());
  }
  Shell shell;
  shell.set_vfs(&vfs);
  Result<std::string> out = shell.Execute("OPEN cat");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("opened cat: 1 relations"), std::string::npos);
}

TEST(ServerTest, PingStatsAndBye) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  EXPECT_TRUE(client.Ping().ok());
  ASSERT_TRUE(client.Execute("HELP").ok());
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("server"), std::string::npos);
  EXPECT_NE(stats->find("admission"), std::string::npos);
  EXPECT_NE(stats->find("session"), std::string::npos);
  client.Close();
  EXPECT_FALSE(client.connected());
  ServerStats counted = server->stats();
  EXPECT_EQ(counted.statements_executed, 1u);
  EXPECT_EQ(counted.protocol_errors, 0u);
}

TEST(ServerTest, StatsShowsOptimizerNodeForLearnedSessions) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  // Before any learned activity the session keeps the old STATS shape.
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->find("optimizer"), std::string::npos) << *stats;
  ASSERT_TRUE(
      client.Execute("GEN BASKETS b n_baskets=60 n_items=10 seed=3").ok());
  ASSERT_TRUE(
      client
          .Execute("FLOCK f QUERY answer(B) :- b(B,$1) FILTER COUNT >= 2")
          .ok());
  ASSERT_TRUE(client.Execute("SET OPTIMIZER LEARNED").ok());
  ASSERT_TRUE(client.Execute("RUN f").ok());
  ASSERT_TRUE(client.Execute("RUN f").ok());
  stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("optimizer"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("mode=learned"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("contexts=1"), std::string::npos) << *stats;
  client.Close();
}

TEST(ServerTest, VersionMismatchDrawsTypedErrorAndDisconnect) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Result<int> fd = TcpConnect("127.0.0.1", server->port());
  ASSERT_TRUE(fd.ok());
  Frame hello;
  hello.type = FrameType::kHello;
  PutU32(hello.body, kProtocolMagic);
  PutU32(hello.body, kProtocolVersion + 7);
  ASSERT_TRUE(WriteFrame(*fd, hello).ok());
  ReadEvent event = ReadFrame(*fd);
  ASSERT_EQ(event.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(event.frame.type, FrameType::kError);
  EXPECT_EQ(DecodeErrorBody(event.frame.body).code(),
            StatusCode::kFailedPrecondition);
  // Then the server hangs up.
  EXPECT_EQ(ReadFrame(*fd).kind, ReadEvent::Kind::kEof);
  CloseFd(*fd);
}

TEST(ServerTest, SessionLimitShedsWithOverloaded) {
  ServerOptions options;
  options.max_sessions = 1;
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  Client first = MustConnect(*server);
  Result<Client> second = Client::Connect("127.0.0.1", server->port());
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kOverloaded);
  // The admitted session is unaffected.
  EXPECT_TRUE(first.Execute("HELP").ok());
  EXPECT_GE(server->stats().sessions_shed, 1u);
}

TEST(ServerTest, PipelinedRepliesMatchRequestIds) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  Result<std::uint64_t> id1 =
      client.Send("GEN BASKETS b n_baskets=10 n_items=5 seed=1");
  Result<std::uint64_t> id2 = client.Send("SHOW RELATIONS");
  Result<std::uint64_t> id3 = client.Send("RUN missing");
  ASSERT_TRUE(id1.ok() && id2.ok() && id3.ok());
  Result<Client::Reply> r1 = client.Recv();
  Result<Client::Reply> r2 = client.Recv();
  Result<Client::Reply> r3 = client.Recv();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  // One session's statements run in order; replies echo the ids.
  EXPECT_EQ(r1->request_id, *id1);
  EXPECT_EQ(r2->request_id, *id2);
  EXPECT_EQ(r3->request_id, *id3);
  EXPECT_TRUE(r1->status.ok());
  EXPECT_NE(r2->output.find("b("), std::string::npos);
  EXPECT_EQ(r3->status.code(), StatusCode::kNotFound);
}

TEST(ServerTest, ShutdownIsIdempotentAndAnswersBeforeStopping) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  ASSERT_TRUE(client.Execute("HELP").ok());
  server->Shutdown();
  server->Shutdown();  // idempotent
  EXPECT_EQ(server->stats().sessions_active, 0u);
  // New connections are refused once drained.
  EXPECT_FALSE(Client::Connect("127.0.0.1", server->port()).ok());
}

// ------------------------------------------------- resumption (v2)

// A raw v2 conversation: handshake on a fresh fd, returning the fd (or
// -1) plus the WELCOME contents.
int RawHandshake(const Server& server, Welcome* welcome,
                 std::uint32_t version = kProtocolVersion) {
  Result<int> fd = TcpConnect("127.0.0.1", server.port());
  if (!fd.ok()) return -1;
  Frame hello{FrameType::kHello, 0, EncodeHelloBody(version)};
  if (!WriteFrame(*fd, hello).ok()) {
    CloseFd(*fd);
    return -1;
  }
  ReadEvent event = ReadFrame(*fd);
  if (event.kind != ReadEvent::Kind::kFrame ||
      event.frame.type != FrameType::kWelcome) {
    CloseFd(*fd);
    return -1;
  }
  Result<Welcome> decoded = DecodeWelcomeBody(event.frame.body);
  if (!decoded.ok()) {
    CloseFd(*fd);
    return -1;
  }
  *welcome = *decoded;
  return *fd;
}

// Reads frames until a non-heartbeat arrives.
ReadEvent RawRead(int fd) {
  while (true) {
    ReadEvent event = ReadFrame(fd);
    if (event.kind == ReadEvent::Kind::kFrame &&
        event.frame.type == FrameType::kHeartbeat) {
      continue;
    }
    return event;
  }
}

TEST(ResumeTest, WelcomeCarriesSessionTokenForV2Only) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Welcome v2;
  int fd2 = RawHandshake(*server, &v2, 2);
  ASSERT_GE(fd2, 0);
  EXPECT_EQ(v2.version, 2u);
  EXPECT_NE(v2.resume_token, 0u);
  Welcome v1;
  int fd1 = RawHandshake(*server, &v1, 1);
  ASSERT_GE(fd1, 0);
  EXPECT_EQ(v1.version, 1u);
  EXPECT_EQ(v1.resume_token, 0u);
  CloseFd(fd2);
  CloseFd(fd1);
}

TEST(ResumeTest, ReplayAfterConnectionLossIsExactlyOnce) {
  MemVfs vfs;
  ServerOptions options;
  options.session_vfs = &vfs;
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);

  Welcome welcome;
  int fd = RawHandshake(*server, &welcome);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(WriteFrame(fd, Frame{FrameType::kStmt, 1, "OPEN cat"}).ok());
  ASSERT_TRUE(
      WriteFrame(
          fd, Frame{FrameType::kStmt, 2,
                    "GEN BASKETS b n_baskets=20 n_items=6 seed=2"})
          .ok());
  ReadEvent first = RawRead(fd);
  ASSERT_EQ(first.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(first.frame.type, FrameType::kResult);
  ReadEvent second = RawRead(fd);
  ASSERT_EQ(second.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(second.frame.type, FrameType::kResult);
  const std::string gen_output = second.frame.body;
  // Kill the connection without a BYE: the session must survive.
  CloseFd(fd);

  Welcome fresh;
  int fd2 = RawHandshake(*server, &fresh);
  ASSERT_GE(fd2, 0);
  EXPECT_NE(fresh.session_id, welcome.session_id);
  ASSERT_TRUE(
      WriteFrame(fd2, Frame{FrameType::kResume, 9,
                            EncodeResumeBody(ResumeRequest{
                                welcome.session_id, welcome.resume_token})})
          .ok());
  ReadEvent resumed = RawRead(fd2);
  ASSERT_EQ(resumed.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(resumed.frame.type, FrameType::kResumed) << static_cast<int>(
      resumed.frame.type);
  std::uint64_t resumed_sid = 0;
  ASSERT_TRUE(ByteReader(resumed.frame.body).GetU64(&resumed_sid));
  EXPECT_EQ(resumed_sid, welcome.session_id);

  // Replaying an already-executed request id answers from the replay
  // cache, bit-identical, without running the statement again.
  ASSERT_TRUE(
      WriteFrame(
          fd2, Frame{FrameType::kStmt, 2,
                     "GEN BASKETS b n_baskets=20 n_items=6 seed=2"})
          .ok());
  ReadEvent replayed = RawRead(fd2);
  ASSERT_EQ(replayed.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(replayed.frame.type, FrameType::kResult);
  EXPECT_EQ(replayed.frame.body, gen_output);

  // The session's state carried across the reconnect: b exists, and new
  // requests execute normally.
  ASSERT_TRUE(
      WriteFrame(fd2, Frame{FrameType::kStmt, 3, "SHOW RELATIONS"}).ok());
  ReadEvent shown = RawRead(fd2);
  ASSERT_EQ(shown.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(shown.frame.type, FrameType::kResult);
  EXPECT_NE(shown.frame.body.find("b("), std::string::npos);

  ServerStats stats = server->stats();
  EXPECT_EQ(stats.sessions_resumed, 1u);
  EXPECT_EQ(stats.replayed_replies, 1u);
  // OPEN + GEN + SHOW — the replayed GEN did not execute twice.
  EXPECT_EQ(stats.statements_executed, 3u);
  CloseFd(fd2);
}

TEST(ResumeTest, WrongTokenDrawsNotFoundAndConversationContinues) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Welcome victim;
  int fd = RawHandshake(*server, &victim);
  ASSERT_GE(fd, 0);

  Welcome fresh;
  int fd2 = RawHandshake(*server, &fresh);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(
      WriteFrame(fd2, Frame{FrameType::kResume, 1,
                            EncodeResumeBody(ResumeRequest{
                                victim.session_id,
                                victim.resume_token ^ 1})})
          .ok());
  ReadEvent denied = RawRead(fd2);
  ASSERT_EQ(denied.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(denied.frame.type, FrameType::kError);
  EXPECT_EQ(DecodeErrorBody(denied.frame.body).code(), StatusCode::kNotFound);
  // The fresh session still works.
  ASSERT_TRUE(WriteFrame(fd2, Frame{FrameType::kStmt, 2, "HELP"}).ok());
  ReadEvent reply = RawRead(fd2);
  ASSERT_EQ(reply.kind, ReadEvent::Kind::kFrame);
  EXPECT_EQ(reply.frame.type, FrameType::kResult);
  EXPECT_EQ(server->stats().sessions_resumed, 0u);
  CloseFd(fd);
  CloseFd(fd2);
}

TEST(ResumeTest, V1DisconnectStillTearsTheSessionDown) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  Welcome welcome;
  int fd = RawHandshake(*server, &welcome, 1);
  ASSERT_GE(fd, 0);
  CloseFd(fd);
  // The reader notices asynchronously; the session must go away, not
  // detach.
  for (int i = 0; i < 200 && server->stats().sessions_active > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.sessions_active, 0u);
  EXPECT_EQ(stats.sessions_detached, 0u);
}

TEST(ResumeTest, DetachedSessionIsReapedAfterResumeWindow) {
  ServerOptions options;
  options.resume_timeout_ms = 40;
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  Welcome welcome;
  int fd = RawHandshake(*server, &welcome);
  ASSERT_GE(fd, 0);
  CloseFd(fd);
  for (int i = 0; i < 400 && server->stats().sessions_reaped == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ServerStats stats = server->stats();
  EXPECT_EQ(stats.sessions_detached, 1u);
  EXPECT_EQ(stats.sessions_reaped, 1u);
  EXPECT_EQ(stats.sessions_active, 0u);
  // RESUME after the reap draws NOT_FOUND.
  Welcome fresh;
  int fd2 = RawHandshake(*server, &fresh);
  ASSERT_GE(fd2, 0);
  ASSERT_TRUE(
      WriteFrame(fd2, Frame{FrameType::kResume, 1,
                            EncodeResumeBody(ResumeRequest{
                                welcome.session_id, welcome.resume_token})})
          .ok());
  ReadEvent denied = RawRead(fd2);
  ASSERT_EQ(denied.kind, ReadEvent::Kind::kFrame);
  ASSERT_EQ(denied.frame.type, FrameType::kError);
  EXPECT_EQ(DecodeErrorBody(denied.frame.body).code(), StatusCode::kNotFound);
  CloseFd(fd2);
}

TEST(ResumeTest, ClientReconnectsAndReplaysThroughFaultSeam) {
  std::unique_ptr<Server> server = StartServer();
  ASSERT_NE(server, nullptr);
  // Kill the client's connection (from the client side of the seam)
  // every 10 socket ops, forever — several times across the
  // conversation, including during resume handshakes. The reconnecting
  // client must still complete the whole conversation exactly-once.
  FaultSocketConfig config;
  config.fault_at_op = 10;
  config.repeat_every = 10;
  config.fault = SocketFault::kDisconnect;
  FaultSocketOps faulty(config);
  ClientOptions client_options;
  client_options.socket_ops = &faulty;
  client_options.reconnect_backoff.base_delay_us = 100;
  client_options.reconnect_backoff.max_delay_us = 1'000;
  Result<Client> client =
      Client::Connect("127.0.0.1", server->port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE(
      client->Execute("GEN BASKETS b n_baskets=30 n_items=8 seed=3").ok());
  for (int i = 0; i < 10; ++i) {
    Result<std::string> out = client->Execute("SHOW RELATIONS");
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    EXPECT_NE(out->find("b("), std::string::npos);
  }
  EXPECT_GE(client->reconnects(), 1u);
  EXPECT_GE(faulty.faults_fired(), 1u);
  ServerStats stats = server->stats();
  EXPECT_GE(stats.sessions_resumed, 1u);
}

TEST(ResumeTest, IdleConnectionsGetHeartbeatsAndSurviveThem) {
  ServerOptions options;
  options.idle_timeout_ms = 15;
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  Welcome welcome;
  int fd = RawHandshake(*server, &welcome);
  ASSERT_GE(fd, 0);
  // Stay silent: the server must probe, not kill.
  ReadEvent probe = ReadFrame(fd);
  ASSERT_EQ(probe.kind, ReadEvent::Kind::kFrame);
  EXPECT_EQ(probe.frame.type, FrameType::kHeartbeat);
  // The connection still serves statements afterwards; client-sent
  // heartbeats are ignored.
  ASSERT_TRUE(WriteFrame(fd, Frame{FrameType::kHeartbeat, 0, ""}).ok());
  ASSERT_TRUE(WriteFrame(fd, Frame{FrameType::kStmt, 1, "HELP"}).ok());
  ReadEvent reply = RawRead(fd);
  ASSERT_EQ(reply.kind, ReadEvent::Kind::kFrame);
  EXPECT_EQ(reply.frame.type, FrameType::kResult);
  EXPECT_GE(server->stats().heartbeats_sent, 1u);
  CloseFd(fd);
}

// The Client consumes heartbeats transparently.
TEST(ResumeTest, ClientSkipsHeartbeatsDuringSlowStatements) {
  ServerOptions options;
  options.idle_timeout_ms = 10;
  std::atomic<int> slow{1};
  options.statement_hook_for_test = [&slow] {
    if (slow.exchange(0) == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(60));
    }
  };
  std::unique_ptr<Server> server = StartServer(std::move(options));
  ASSERT_NE(server, nullptr);
  Client client = MustConnect(*server);
  // The reply takes ~60 ms; several heartbeats arrive first.
  Result<std::string> out = client.Execute("HELP");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GE(server->stats().heartbeats_sent, 1u);
}

// ------------------------------------ socket timeouts and SIGPIPE

TEST(SocketTest, SendToHalfClosedSocketFailsTypedWithoutSigpipe) {
  // Regression for the SIGPIPE audit: every send path uses MSG_NOSIGNAL,
  // so writing into a peer-closed socket returns EPIPE instead of
  // killing the process (gtest would report a crash, not a failure).
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  CloseFd(fds[1]);
  Status s = Status::Ok();
  // The first write may land in the (dead) buffer; keep going until the
  // EPIPE surfaces.
  for (int i = 0; i < 16 && s.ok(); ++i) {
    s = WriteFrame(fds[0], Frame{FrameType::kPing, 1, "x"});
  }
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  CloseFd(fds[0]);
}

TEST(SocketTest, ReceiveTimeoutSurfacesDeadlineExceeded) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(SetSocketTimeouts(fds[0], 30).ok());
  ReadEvent event = ReadFrame(fds[0]);
  ASSERT_EQ(event.kind, ReadEvent::Kind::kError);
  EXPECT_EQ(event.status.code(), StatusCode::kDeadlineExceeded);
  // A timeout that strikes mid-frame poisons the stream instead.
  std::string wire = EncodeFrame({FrameType::kPing, 1, ""});
  ASSERT_GT(::send(fds[1], wire.data(), 3, MSG_NOSIGNAL), 0);
  event = ReadFrame(fds[0]);
  ASSERT_EQ(event.kind, ReadEvent::Kind::kError);
  EXPECT_EQ(event.status.code(), StatusCode::kIoError);
  CloseFd(fds[0]);
  CloseFd(fds[1]);
}

TEST(SocketTest, ClientStatementTimeoutIsTypedAndSessionRecovers) {
  ServerOptions server_options;
  std::atomic<int> slow{1};
  server_options.statement_hook_for_test = [&slow] {
    if (slow.exchange(0) == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
  };
  std::unique_ptr<Server> server = StartServer(std::move(server_options));
  ASSERT_NE(server, nullptr);
  ClientOptions client_options;
  client_options.timeout_ms = 40;
  Result<Client> client =
      Client::Connect("127.0.0.1", server->port(), client_options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  Result<std::string> out = client->Execute("HELP");
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kDeadlineExceeded);
  // Once the slow statement finishes server-side, its late reply is
  // dropped, not misattributed: the next statement gets its own answer.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  out = client->Execute("SHOW RELATIONS");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->find("relations"), std::string::npos);
}

}  // namespace
}  // namespace qf
