// The qfserverd wire protocol: length-prefixed, CRC32C-framed binary
// request/response over a byte stream (TCP), shared by the server
// (network/server.h), the blocking client library (network/client.h),
// and tools/load_test.py (which re-implements it in Python).
//
// Each message is one checksummed frame (AppendFrame / ParseFrame,
// relational/serialize.h), the frame the WAL, snapshot, paged relation
// and spill files use too, so one checksum discipline guards disk and
// wire. Integers are little-endian; the frame's payload is
//
//   [u8 frame type][u64 request id][body...]
//
// The payload length is validated against kMaxPayloadBytes *before* any
// allocation: a hostile length prefix costs the server nothing.
//
// Conversation (protocol version 2; version 1 clients still speak the
// PR 6 subset and are answered in kind):
//   1. Handshake. The client's first frame must be HELLO (body = u32
//      magic "QFLK" + u32 protocol version, 1 or 2). The server answers
//      WELCOME — for v1 a 12-byte body (u32 version + u64 session id),
//      for v2 a 20-byte body that also carries a u64 resume token — or a
//      typed ERROR frame (FAILED_PRECONDITION for an unsupported
//      version) and disconnects.
//   2. Requests. STMT carries one shell statement; the server answers
//      RESULT (body = printable output) or ERROR (body = u8 StatusCode +
//      message), echoing the request id. Replies to *admitted* statements
//      arrive in admission order; shed statements (typed OVERLOADED
//      ERROR) are answered immediately, so ids let a pipelining client
//      match replies to requests. PING answers PONG and STATS answers
//      RESULT immediately, bypassing the admission queue. BYE is answered
//      with BYE, then the server closes.
//   3. Resumption (v2). A connection loss does not end a v2 session: the
//      server parks it (replies to still-running statements land in a
//      bounded per-session replay cache) until a resume timeout reaps
//      it. A reconnecting client handshakes a fresh session, then sends
//      RESUME (body = u64 old session id + u64 resume token); on a match
//      the server re-attaches the old session to this connection,
//      discards the fresh one, and answers RESUMED (body = u64 session
//      id). The client then replays its unanswered requests under their
//      original ids: anything that already executed is answered from the
//      replay cache, anything still in flight is deduplicated, anything
//      never received is admitted normally — WAL-before-ack mutations
//      are exactly-once across connection loss, never maybe-twice. A bad
//      RESUME draws a typed ERROR (NOT_FOUND) and the conversation
//      continues on the fresh session.
//   4. Heartbeats (v2). On an idle connection the server sends
//      HEARTBEAT frames; clients ignore them (and may send their own,
//      which the server ignores). A heartbeat write that fails marks the
//      connection dead and detaches the session.
//   5. Any malformed frame — oversized or truncated length, checksum
//      mismatch, unknown type, mid-handshake garbage — draws a
//      best-effort typed ERROR frame and a disconnect, never a hang:
//      after framing is lost the stream cannot be resynchronized.
//
// Error frames reuse StatusCode (common/status.h) as their on-wire code,
// so a client sees exactly the typed status a local shell would return:
// DEADLINE_EXCEEDED, RESOURCE_EXHAUSTED, OVERLOADED, ...
//
// All stream I/O goes through the SocketOps seam (network/socket.h);
// FaultSocketOps (network/fault_socket.h) injects disconnects, short
// I/O, typed errnos, and corruption for the chaos suites.
#ifndef QF_NETWORK_PROTOCOL_H_
#define QF_NETWORK_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "network/socket.h"
#include "relational/serialize.h"

namespace qf {

inline constexpr std::uint32_t kProtocolVersion = 2;
// Oldest client version the server still serves (the PR 6 protocol:
// no RESUME/RESUMED/HEARTBEAT, 12-byte WELCOME, no resumption).
inline constexpr std::uint32_t kMinProtocolVersion = 1;
// "QFLK", read as a little-endian u32.
inline constexpr std::uint32_t kProtocolMagic = 0x4B4C4651u;
// Hard ceiling on one frame's payload; validated before allocation.
// Generous for statements and result previews alike.
inline constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;
// [u8 type][u64 request id]
inline constexpr std::size_t kMinPayloadBytes = 9;

enum class FrameType : std::uint8_t {
  kHello = 1,      // client -> server: u32 magic, u32 version
  kWelcome = 2,    // server -> client: u32 version, u64 session id,
                   //   and (v2) u64 resume token
  kStmt = 3,       // client -> server: statement text
  kResult = 4,     // server -> client: output text
  kError = 5,      // server -> client: u8 StatusCode, message text
  kPing = 6,       // client -> server: empty
  kPong = 7,       // server -> client: empty
  kStats = 8,      // client -> server: empty; answered with kResult
  kBye = 9,        // either direction: clean shutdown of the conversation
  kResume = 10,    // client -> server (v2): u64 session id, u64 token
  kResumed = 11,   // server -> client (v2): u64 session id
  kHeartbeat = 12, // either direction (v2): empty; ignored by receivers
};

// True for the FrameType values above (the wire is untrusted input).
bool IsKnownFrameType(std::uint8_t type);

struct Frame {
  FrameType type = FrameType::kError;
  std::uint64_t request_id = 0;
  std::string body;
};

// Serializes `frame` as one wire frame (header + checksummed payload).
std::string EncodeFrame(const Frame& frame);

// Incremental decode of the frame at the front of `bytes`.
struct DecodeOutcome {
  // Not enough bytes buffered yet; nothing consumed, no error.
  bool need_more = false;
  // Bytes consumed from the front when a frame (or a framing error)
  // was produced.
  std::size_t consumed = 0;
  Frame frame;
  // Non-OK when the stream is poisoned: oversized length, checksum
  // mismatch, short or unknown payload. Framing cannot be recovered
  // after this — the connection must be dropped.
  Status status;
};
DecodeOutcome DecodeFrame(std::string_view bytes);

// Typed-error body helpers: the ERROR frame body is one StatusCode byte
// plus the message text.
std::string EncodeErrorBody(const Status& status);
// Decodes an ERROR body; an unknown code byte maps to INTERNAL (wire is
// untrusted), an empty body to INTERNAL "empty error frame".
Status DecodeErrorBody(std::string_view body);

// Handshake bodies. CheckHelloBody returns the negotiated version (the
// client's, when the server supports it) or a typed error:
// INVALID_ARGUMENT for a short body or bad magic, FAILED_PRECONDITION
// for a version outside [kMinProtocolVersion, kProtocolVersion].
std::string EncodeHelloBody(std::uint32_t version = kProtocolVersion);
Result<std::uint32_t> CheckHelloBody(std::string_view body);

struct Welcome {
  std::uint32_t version = 0;
  std::uint64_t session_id = 0;
  // Zero for v1 sessions (not resumable).
  std::uint64_t resume_token = 0;
};
// Encodes the version-appropriate body: v1 = [u32 version][u64 id],
// v2 = [u32 version][u64 id][u64 token].
std::string EncodeWelcomeBody(const Welcome& welcome);
Result<Welcome> DecodeWelcomeBody(std::string_view body);

// RESUME bodies: [u64 session id][u64 resume token].
struct ResumeRequest {
  std::uint64_t session_id = 0;
  std::uint64_t resume_token = 0;
};
std::string EncodeResumeBody(const ResumeRequest& resume);
Result<ResumeRequest> DecodeResumeBody(std::string_view body);

// --- blocking stream I/O (POSIX fd) ---

// One read event: a frame, a clean end-of-stream at a frame boundary, or
// an error (typed: INVALID_ARGUMENT for protocol violations, IO_ERROR
// for socket failures, DEADLINE_EXCEEDED when a socket timeout set via
// SetSocketTimeouts expires mid-read).
struct ReadEvent {
  enum class Kind { kFrame, kEof, kError };
  Kind kind = Kind::kError;
  Frame frame;
  Status status;
};
// `ops` selects the I/O seam; null = DefaultSocketOps().
ReadEvent ReadFrame(int fd, SocketOps* ops = nullptr);

// Writes the whole encoded frame (EINTR-retrying, SIGPIPE-suppressing).
// A socket send timeout surfaces as DEADLINE_EXCEEDED.
Status WriteFrame(int fd, const Frame& frame, SocketOps* ops = nullptr);

}  // namespace qf

#endif  // QF_NETWORK_PROTOCOL_H_
