// Binary (de)serialization of relational state for the durable catalog
// (storage/): little-endian, length-prefixed, bounds-checked. The byte
// layout is deterministic — two Relations with equal schemas and equal
// row sequences encode to identical bytes, which the crash-recovery
// torture tests rely on for bit-for-bit oracle comparison.
//
// This file also defines the one checksummed frame that every persisted
// or transmitted byte travels in (AppendFrame / ParseFrame below): WAL
// records, the catalog snapshot, paged relation files, spill blocks and
// wire messages.
// Decoders never trust lengths: every read is bounds-checked against the
// remaining input and a malformed buffer yields CORRUPT_WAL, never UB —
// the recovery fuzzer feeds bit-flipped records straight in here.
#ifndef QF_RELATIONAL_SERIALIZE_H_
#define QF_RELATIONAL_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/resource.h"
#include "common/status.h"
#include "relational/relation.h"
#include "relational/value.h"

namespace qf {

// --- primitive writers (append to `out`) ---
void PutU32(std::string& out, std::uint32_t v);
void PutU64(std::string& out, std::uint64_t v);
void PutI64(std::string& out, std::int64_t v);
void PutF64(std::string& out, double v);
// u32 length prefix + bytes.
void PutString(std::string& out, std::string_view s);
void PutValue(std::string& out, const Value& v);

// --- bounds-checked reader ---
// All Get* methods return false (and leave outputs unspecified) once the
// input is exhausted or malformed; `ok()` stays false from then on.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }

  bool GetU32(std::uint32_t* v);
  bool GetU64(std::uint64_t* v);
  bool GetI64(std::int64_t* v);
  bool GetF64(double* v);
  bool GetString(std::string_view* s);
  bool GetValue(Value* v);
  // Advances past one value as PutValue wrote it, without building it.
  bool SkipValue();
  // Raw view of the next `n` bytes.
  bool GetBytes(std::size_t n, std::string_view* s);

 private:
  bool Take(std::size_t n, const char** p);

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

// --- the checksummed frame ---
//
//   [u32 payload length][u32 masked CRC32C of the payload][payload]
//
// The CRC is masked (common/crc32c.h). Each caller maps a failed parse
// to its own typed error: the WAL ends at the torn tail, the snapshot
// returns CORRUPT_WAL, pages and spill blocks IO_ERROR, the wire
// INVALID_ARGUMENT.
inline constexpr std::size_t kFrameHeaderBytes = 8;

void AppendFrame(std::string& out, std::string_view payload);

enum class FrameCheck { kOk, kTruncated, kCorrupt };

struct ParsedFrame {
  // kTruncated: `in` ends inside the header or the payload. kCorrupt: the
  // length exceeds the caller's bound, or the checksum mismatches.
  FrameCheck check = FrameCheck::kTruncated;
  // The header's payload length, set once the header is whole (also when
  // it is out of bound), so a streaming reader knows what to fetch.
  std::uint32_t length = 0;
  std::string_view payload;  // the verified payload, on kOk only
  // Bytes the frame occupies in `in`.
  std::size_t size() const { return kFrameHeaderBytes + length; }
};

// Parses the frame at the front of `in`. The header's length is checked
// against `max_payload` (the bytes that can follow, or a protocol
// ceiling) before the payload is looked at, so a caller that sizes a
// buffer from `length` never allocates for a corrupt header.
ParsedFrame ParseFrame(std::string_view in, std::uint64_t max_payload);

// Appends `rel` (name, schema, rows in stored order) to `out`. Polls
// `ctx` every QueryContext::kPollStride rows so snapshotting a huge
// relation stays interruptible; returns the governor's typed status on
// abort (with `out` in an unspecified, discardable state).
Status EncodeRelation(const Relation& rel, std::string& out,
                      QueryContext* ctx = nullptr);

// Decodes one relation from `in` (advancing it). Malformed input yields
// CORRUPT_WAL; a tripped governor yields its typed status.
Result<Relation> DecodeRelation(ByteReader& in, QueryContext* ctx = nullptr);

}  // namespace qf

#endif  // QF_RELATIONAL_SERIALIZE_H_
