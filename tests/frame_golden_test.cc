// Golden bytes of every checksummed frame the system writes: a WAL
// commit, a checkpoint's snapshot file, a paged relation file, a spill
// file and a wire frame. Each expected file is assembled here by hand as
// [u32 length][u32 masked CRC32C][payload], with the checksums spelled
// out as literals, so any change to the on-disk or on-wire bytes fails
// this test. Fixed inputs only; nothing here is random.
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "common/vfs.h"
#include "network/protocol.h"
#include "relational/relation.h"
#include "relational/schema.h"
#include "relational/spill.h"
#include "storage/catalog.h"
#include "storage/page.h"

namespace qf {
namespace {

std::string Le32(std::uint32_t v) {
  std::string out;
  for (int i = 0; i < 4; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
  return out;
}

std::string Le64(std::uint64_t v) {
  std::string out;
  for (int i = 0; i < 8; ++i) out += static_cast<char>((v >> (8 * i)) & 0xff);
  return out;
}

// A length-prefixed string, as the record and relation encodings use.
std::string Str(const std::string& s) {
  return Le32(static_cast<std::uint32_t>(s.size())) + s;
}

// An integer Value: kind tag 0, then the i64.
std::string Int(std::int64_t v) {
  return std::string(1, '\0') + Le64(static_cast<std::uint64_t>(v));
}

std::string Framed(std::uint32_t masked_crc, const std::string& payload) {
  return Le32(static_cast<std::uint32_t>(payload.size())) + Le32(masked_crc) +
         payload;
}

// The knob record both the WAL and the snapshot tests log: type 4, the
// key, the i64 value.
const std::string kKnobBody = std::string(1, '\x04') + Str("threads") + Le64(3);

TEST(FrameGoldenTest, WalCommit) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "db");
  ASSERT_TRUE(cat.ok()) << cat.status().ToString();
  ASSERT_TRUE((*cat)->SetKnob("threads", 3).ok());
  // Commit payload: u64 LSN, u32 record count, length-prefixed records.
  std::string payload = Le64(1) + Le32(1) + Str(kKnobBody);
  Result<std::string> wal = vfs.ReadFile("db/catalog.wal");
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(*wal, Framed(0x473d007cu, payload));
}

TEST(FrameGoldenTest, CheckpointSnapshot) {
  MemVfs vfs;
  Result<std::unique_ptr<Catalog>> cat = Catalog::Open(vfs, "db");
  ASSERT_TRUE(cat.ok()) << cat.status().ToString();
  ASSERT_TRUE((*cat)->SetKnob("threads", 3).ok());
  ASSERT_TRUE((*cat)->Checkpoint().ok());
  // Payload: u64 last-applied LSN, then the state: no rules, no flocks,
  // one knob, an empty optimizer history, no relations.
  std::string payload = Le64(1) + Le32(0) + Le32(0) + Le32(1) +
                        Str("threads") + Le64(3) + Le32(0) + Le32(0);
  Result<std::string> snap = vfs.ReadFile("db/catalog.snap");
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ(*snap, "QFSNAP01" + Framed(0xdf859989u, payload));
  Result<std::string> wal = vfs.ReadFile("db/catalog.wal");
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(*wal, "");
}

TEST(FrameGoldenTest, OnePageRelationFile) {
  MemVfs vfs;
  Relation rel("r", Schema({"a", "b"}));
  rel.Add({Value(std::int64_t{1}), Value(std::int64_t{2})});
  rel.Add({Value(std::int64_t{3}), Value(std::int64_t{4})});
  Result<PagedWriteInfo> info = WritePagedRelation(vfs, "r.qfp", rel);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->pages, 1u);

  // Page payload: u32 row count, then each column's values in turn.
  std::string page = Framed(0x39b9487du,
                            Le32(2) + Int(1) + Int(3) + Int(2) + Int(4));
  const std::uint64_t page_offset = 8;
  // Directory payload: name, arity, columns, row count, page table.
  std::string dir = Framed(
      0x8cf4441au, Str("r") + Le32(2) + Str("a") + Str("b") + Le64(2) +
                       Le32(1) + Le64(page_offset) +
                       Le32(static_cast<std::uint32_t>(page.size())) + Le64(0));
  const std::uint64_t dir_offset = page_offset + page.size();
  // Footer (not a frame): u64 directory offset, its masked CRC, magic.
  std::string footer = Le64(dir_offset) + Le32(0x577d79a3u) + "QFPAGE01";
  Result<std::string> file = vfs.ReadFile("r.qfp");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(*file, "QFPAGE01" + page + dir + footer);
  EXPECT_EQ(info->bytes, file->size());
}

TEST(FrameGoldenTest, OneBlockSpillFile) {
  MemVfs vfs;
  SpillEnv env;
  env.vfs = &vfs;
  env.dir = "spill";
  SpillWriter writer(env);
  ASSERT_TRUE(writer.Add("alpha").ok());
  ASSERT_TRUE(writer.Add("be").ok());
  ASSERT_TRUE(writer.Finish().ok());
  // Block payload: records, each u32 length + bytes.
  std::string expected = Framed(0x75f240d5u, Str("alpha") + Str("be"));
  Result<std::string> file = vfs.ReadFile(writer.path());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(*file, expected);
  EXPECT_EQ(writer.bytes(), expected.size());
}

TEST(FrameGoldenTest, StmtWireFrame) {
  Frame frame;
  frame.type = FrameType::kStmt;
  frame.request_id = 7;
  frame.body = "RUN pairs;";
  // Payload: u8 frame type 3, u64 request id, the statement text.
  std::string payload = std::string(1, '\x03') + Le64(7) + "RUN pairs;";
  EXPECT_EQ(EncodeFrame(frame), Framed(0x02412960u, payload));
}

}  // namespace
}  // namespace qf
