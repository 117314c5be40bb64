#include "network/protocol.h"

#include <cerrno>
#include <cstring>

#include "relational/serialize.h"

namespace qf {

bool IsKnownFrameType(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(FrameType::kHello) &&
         type <= static_cast<std::uint8_t>(FrameType::kHeartbeat);
}

std::string EncodeFrame(const Frame& frame) {
  std::string payload;
  payload.reserve(kMinPayloadBytes + frame.body.size());
  payload += static_cast<char>(frame.type);
  PutU64(payload, frame.request_id);
  payload += frame.body;

  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  AppendFrame(out, payload);
  return out;
}

// The one wire-frame validator: length bounds, checksum, frame type and
// request id. ReadFrame runs it over the header alone and then over the
// whole frame.
DecodeOutcome DecodeFrame(std::string_view bytes) {
  DecodeOutcome out;
  ParsedFrame parsed = ParseFrame(bytes, kMaxPayloadBytes);
  std::string error;
  if (parsed.length > kMaxPayloadBytes) {
    error = "oversized frame: " + std::to_string(parsed.length) + " bytes";
  } else if (bytes.size() >= kFrameHeaderBytes &&
             parsed.length < kMinPayloadBytes) {
    error = "short frame payload: " + std::to_string(parsed.length) +
            " bytes";
  } else if (parsed.check == FrameCheck::kTruncated) {
    out.need_more = true;
    return out;
  } else if (parsed.check == FrameCheck::kCorrupt) {
    error = "frame checksum mismatch";
  } else if (auto type = static_cast<std::uint8_t>(parsed.payload[0]);
             !IsKnownFrameType(type)) {
    error = "unknown frame type " + std::to_string(type);
  }
  if (!error.empty()) {
    out.consumed = bytes.size();
    out.status = InvalidArgumentError(error);
    return out;
  }
  out.frame.type = static_cast<FrameType>(parsed.payload[0]);
  ByteReader(parsed.payload.substr(1)).GetU64(&out.frame.request_id);
  out.frame.body = std::string(parsed.payload.substr(kMinPayloadBytes));
  out.consumed = parsed.size();
  return out;
}

std::string EncodeErrorBody(const Status& status) {
  std::string body;
  body += static_cast<char>(static_cast<std::uint8_t>(status.code()));
  body += status.message();
  return body;
}

Status DecodeErrorBody(std::string_view body) {
  if (body.empty()) return InternalError("empty error frame");
  std::uint8_t code = static_cast<unsigned char>(body[0]);
  std::string message(body.substr(1));
  if (code == 0 || code > static_cast<std::uint8_t>(StatusCode::kOverloaded)) {
    return InternalError("unknown wire status code " + std::to_string(code) +
                         ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

std::string EncodeHelloBody(std::uint32_t version) {
  std::string body;
  PutU32(body, kProtocolMagic);
  PutU32(body, version);
  return body;
}

Result<std::uint32_t> CheckHelloBody(std::string_view body) {
  ByteReader in(body);
  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  if (!in.GetU32(&magic) || !in.GetU32(&version)) {
    return InvalidArgumentError("short HELLO body");
  }
  if (magic != kProtocolMagic) {
    return InvalidArgumentError("bad protocol magic");
  }
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return FailedPreconditionError(
        "unsupported protocol version " + std::to_string(version) +
        " (server speaks " + std::to_string(kMinProtocolVersion) + ".." +
        std::to_string(kProtocolVersion) + ")");
  }
  return version;
}

std::string EncodeWelcomeBody(const Welcome& welcome) {
  std::string body;
  PutU32(body, welcome.version);
  PutU64(body, welcome.session_id);
  if (welcome.version >= 2) PutU64(body, welcome.resume_token);
  return body;
}

Result<Welcome> DecodeWelcomeBody(std::string_view body) {
  ByteReader in(body);
  Welcome welcome;
  if (!in.GetU32(&welcome.version) || !in.GetU64(&welcome.session_id)) {
    return InvalidArgumentError("short WELCOME body");
  }
  if (welcome.version < kMinProtocolVersion ||
      welcome.version > kProtocolVersion) {
    return FailedPreconditionError("server speaks protocol version " +
                                   std::to_string(welcome.version));
  }
  if (welcome.version >= 2 && !in.GetU64(&welcome.resume_token)) {
    return InvalidArgumentError("short v2 WELCOME body");
  }
  return welcome;
}

std::string EncodeResumeBody(const ResumeRequest& resume) {
  std::string body;
  PutU64(body, resume.session_id);
  PutU64(body, resume.resume_token);
  return body;
}

Result<ResumeRequest> DecodeResumeBody(std::string_view body) {
  ByteReader in(body);
  ResumeRequest resume;
  if (!in.GetU64(&resume.session_id) || !in.GetU64(&resume.resume_token)) {
    return InvalidArgumentError("short RESUME body");
  }
  return resume;
}

namespace {

// Reads exactly `n` bytes. Returns n on success, 0 for EOF before the
// first byte, -1 for EOF mid-buffer, -2 for a socket error (errno set),
// -3 for a receive timeout before the first byte (SO_RCVTIMEO expired at
// a clean boundary), -4 for a timeout mid-buffer (stream position lost).
ssize_t ReadFull(int fd, SocketOps* ops, char* buf, std::size_t n) {
  std::size_t done = 0;
  while (done < n) {
    ssize_t got = ops->Recv(fd, buf + done, n - done);
    if (got > 0) {
      done += static_cast<std::size_t>(got);
      continue;
    }
    if (got == 0) return done == 0 ? 0 : -1;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return done == 0 ? -3 : -4;
    return -2;
  }
  return static_cast<ssize_t>(done);
}

}  // namespace

ReadEvent ReadFrame(int fd, SocketOps* ops) {
  if (ops == nullptr) ops = DefaultSocketOps();
  ReadEvent event;
  std::string bytes(kFrameHeaderBytes, '\0');
  ssize_t got = ReadFull(fd, ops, bytes.data(), bytes.size());
  if (got == 0) {
    event.kind = ReadEvent::Kind::kEof;
    return event;
  }
  if (got == -1) {
    event.status = InvalidArgumentError("truncated frame header");
    return event;
  }
  if (got == -3) {
    // No frame had started: the connection is still well-framed, the
    // peer is just slow. A clean, typed timeout.
    event.status = DeadlineExceededError("socket receive timed out");
    return event;
  }
  if (got == -4) {
    // The timeout struck mid-frame; the stream position is lost and the
    // connection cannot be reused. Surface a connection-level error so
    // resuming clients redial instead of reading garbage.
    event.status = IoError("socket receive timed out mid-frame");
    return event;
  }
  if (got < 0) {
    event.status = IoError(std::string("recv: ") + std::strerror(errno));
    return event;
  }
  // The header alone either asks for a payload within bounds or is
  // rejected before anything is allocated for it.
  DecodeOutcome decoded = DecodeFrame(bytes);
  if (!decoded.need_more) {
    event.status = decoded.status;
    return event;
  }
  bytes.resize(ParseFrame(bytes, kMaxPayloadBytes).size());
  got = ReadFull(fd, ops, bytes.data() + kFrameHeaderBytes,
                 bytes.size() - kFrameHeaderBytes);
  if (got == 0 || got == -1) {
    event.status = InvalidArgumentError("truncated frame payload");
    return event;
  }
  if (got == -3 || got == -4) {
    // Any timeout here is mid-frame (the header was already consumed).
    event.status = IoError("socket receive timed out mid-frame");
    return event;
  }
  if (got < 0) {
    event.status = IoError(std::string("recv: ") + std::strerror(errno));
    return event;
  }
  decoded = DecodeFrame(bytes);
  if (!decoded.status.ok()) {
    event.status = decoded.status;
    return event;
  }
  event.kind = ReadEvent::Kind::kFrame;
  event.frame = std::move(decoded.frame);
  return event;
}

Status WriteFrame(int fd, const Frame& frame, SocketOps* ops) {
  if (ops == nullptr) ops = DefaultSocketOps();
  std::string bytes = EncodeFrame(frame);
  std::size_t done = 0;
  while (done < bytes.size()) {
    ssize_t sent = ops->Send(fd, bytes.data() + done, bytes.size() - done);
    if (sent >= 0) {
      done += static_cast<std::size_t>(sent);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Same boundary rule as ReadFrame: a frame partially written
      // leaves the stream unframed, which is a connection loss, not a
      // clean timeout.
      if (done > 0) return IoError("socket send timed out mid-frame");
      return DeadlineExceededError("socket send timed out");
    }
    return IoError(std::string("send: ") + std::strerror(errno));
  }
  return Status::Ok();
}

}  // namespace qf
