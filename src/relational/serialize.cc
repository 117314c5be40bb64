#include "relational/serialize.h"

#include <cstring>

#include "common/crc32c.h"

#include "relational/schema.h"
#include "relational/tuple.h"

namespace qf {

void PutU32(std::string& out, std::uint32_t v) {
  char buf[4];
  for (int i = 0; i < 4; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.append(buf, 4);
}

void PutU64(std::string& out, std::uint64_t v) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(v >> (8 * i));
  out.append(buf, 8);
}

void PutI64(std::string& out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

void PutF64(std::string& out, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

void PutValue(std::string& out, const Value& v) {
  out.push_back(static_cast<char>(v.kind()));
  switch (v.kind()) {
    case Value::Kind::kInt:
      PutI64(out, v.AsInt());
      break;
    case Value::Kind::kDouble:
      PutF64(out, v.AsDouble());
      break;
    case Value::Kind::kString:
      PutString(out, v.AsString());
      break;
  }
}

bool ByteReader::Take(std::size_t n, const char** p) {
  if (!ok_ || data_.size() - pos_ < n) {
    ok_ = false;
    return false;
  }
  *p = data_.data() + pos_;
  pos_ += n;
  return true;
}

bool ByteReader::GetU32(std::uint32_t* v) {
  const char* p;
  if (!Take(4, &p)) return false;
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    out |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
  }
  *v = out;
  return true;
}

bool ByteReader::GetU64(std::uint64_t* v) {
  const char* p;
  if (!Take(8, &p)) return false;
  std::uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
           << (8 * i);
  }
  *v = out;
  return true;
}

bool ByteReader::GetI64(std::int64_t* v) {
  std::uint64_t bits;
  if (!GetU64(&bits)) return false;
  *v = static_cast<std::int64_t>(bits);
  return true;
}

bool ByteReader::GetF64(double* v) {
  std::uint64_t bits;
  if (!GetU64(&bits)) return false;
  std::memcpy(v, &bits, sizeof(bits));
  return true;
}

bool ByteReader::GetString(std::string_view* s) {
  std::uint32_t len;
  if (!GetU32(&len)) return false;
  return GetBytes(len, s);
}

bool ByteReader::GetBytes(std::size_t n, std::string_view* s) {
  const char* p;
  if (!Take(n, &p)) return false;
  *s = std::string_view(p, n);
  return true;
}

bool ByteReader::GetValue(Value* v) {
  const char* p;
  if (!Take(1, &p)) return false;
  switch (*p) {
    case static_cast<char>(Value::Kind::kInt): {
      std::int64_t i;
      if (!GetI64(&i)) return false;
      *v = Value(i);
      return true;
    }
    case static_cast<char>(Value::Kind::kDouble): {
      double d;
      if (!GetF64(&d)) return false;
      *v = Value(d);
      return true;
    }
    case static_cast<char>(Value::Kind::kString): {
      std::string_view s;
      if (!GetString(&s)) return false;
      *v = Value(s);
      return true;
    }
    default:
      ok_ = false;
      return false;
  }
}

bool ByteReader::SkipValue() {
  const char* p;
  if (!Take(1, &p)) return false;
  std::string_view skipped;
  if (*p == static_cast<char>(Value::Kind::kString)) return GetString(&skipped);
  if (*p == static_cast<char>(Value::Kind::kInt) ||
      *p == static_cast<char>(Value::Kind::kDouble)) {
    return GetBytes(8, &skipped);
  }
  ok_ = false;
  return false;
}

void AppendFrame(std::string& out, std::string_view payload) {
  PutU32(out, static_cast<std::uint32_t>(payload.size()));
  PutU32(out, Crc32cMask(Crc32c(payload)));
  out.append(payload);
}

ParsedFrame ParseFrame(std::string_view in, std::uint64_t max_payload) {
  ParsedFrame frame;
  ByteReader r(in);
  std::uint32_t masked = 0;
  if (!r.GetU32(&frame.length) || !r.GetU32(&masked)) {
    frame.length = 0;
    return frame;
  }
  if (frame.length > max_payload) {
    frame.check = FrameCheck::kCorrupt;
    return frame;
  }
  std::string_view payload;
  if (!r.GetBytes(frame.length, &payload)) return frame;
  if (Crc32c(payload) != Crc32cUnmask(masked)) {
    frame.check = FrameCheck::kCorrupt;
    return frame;
  }
  frame.check = FrameCheck::kOk;
  frame.payload = payload;
  return frame;
}

Status EncodeRelation(const Relation& rel, std::string& out,
                      QueryContext* ctx) {
  PutString(out, rel.name());
  PutU32(out, static_cast<std::uint32_t>(rel.arity()));
  for (std::size_t c = 0; c < rel.arity(); ++c) {
    PutString(out, rel.schema().column(c));
  }
  PutU64(out, rel.size());
  std::size_t since_poll = 0;
  for (const Tuple& t : rel.rows()) {
    if (ctx != nullptr && ++since_poll >= QueryContext::kPollStride) {
      since_poll = 0;
      if (!ctx->Poll()) return ctx->Check();
    }
    for (const Value& v : t) PutValue(out, v);
  }
  return Status::Ok();
}

Result<Relation> DecodeRelation(ByteReader& in, QueryContext* ctx) {
  auto corrupt = [&]() {
    return CorruptWalError("malformed relation record at byte " +
                           std::to_string(in.position()));
  };
  std::string_view name;
  std::uint32_t arity;
  if (!in.GetString(&name) || !in.GetU32(&arity)) return corrupt();
  // Arities beyond this are impossible in practice and only arise from
  // corrupt length fields; reject before allocating.
  if (arity > 4096) return corrupt();
  std::vector<std::string> columns;
  columns.reserve(arity);
  for (std::uint32_t c = 0; c < arity; ++c) {
    std::string_view col;
    if (!in.GetString(&col)) return corrupt();
    // Schema aborts on duplicate names; corrupt bytes must error instead.
    for (const std::string& prev : columns) {
      if (prev == col) return corrupt();
    }
    columns.emplace_back(col);
  }
  std::uint64_t n_rows;
  if (!in.GetU64(&n_rows)) return corrupt();
  // Every row costs at least one tag byte per column, so a row count the
  // remaining input cannot possibly hold is a corrupt length field —
  // reject before looping (a flipped high bit must not become a 2^60
  // iteration allocation loop). Arity-0 relations hold at most one row.
  std::uint64_t max_rows = arity == 0 ? 1 : in.remaining() / arity;
  if (n_rows > max_rows) return corrupt();
  Relation rel(std::string(name), Schema(std::move(columns)));
  std::size_t since_poll = 0;
  for (std::uint64_t r = 0; r < n_rows; ++r) {
    if (ctx != nullptr && ++since_poll >= QueryContext::kPollStride) {
      since_poll = 0;
      if (!ctx->Poll()) return ctx->Check();
    }
    Tuple t;
    t.reserve(arity);
    for (std::uint32_t c = 0; c < arity; ++c) {
      Value v;
      if (!in.GetValue(&v)) return corrupt();
      t.push_back(v);
    }
    rel.Add(std::move(t));
  }
  return rel;
}

}  // namespace qf
