// Grace-hash spilling (relational/spill.h): checksummed spill-file I/O
// (round trip, corruption, fault injection, orphan cleanup), the
// SpillGroupSink against GroupAggregate∘Distinct — under injected faults,
// crashes, and budgets that force partition recursion — and an
// end-to-end flock evaluation where a budget that used to mean
// RESOURCE_EXHAUSTED now spills to the same answer at several thread
// counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "common/vfs.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "relational/ops.h"
#include "relational/relation.h"
#include "relational/spill.h"

namespace qf {
namespace {

// A small-fanout, small-block env so tiny test inputs still exercise the
// partition/merge machinery.
struct TestEnv {
  MemVfs vfs;
  SpillEnv env;
  TestEnv() {
    env.vfs = &vfs;
    env.dir = "spill";
    env.fanout = 4;
    env.block_bytes = 512;
  }
};

// ------------------------------------------------------------- file I/O

TEST(SpillFileTest, WriterReaderRoundTripInOrder) {
  TestEnv t;
  SpillWriter writer(t.env);
  std::vector<std::string> records;
  std::mt19937 rng(42);
  for (int i = 0; i < 500; ++i) {
    // Varying sizes, some empty, some spanning several blocks.
    std::size_t len = static_cast<std::size_t>(rng() % 900);
    std::string rec(len, static_cast<char>('a' + (i % 26)));
    rec += std::to_string(i);
    records.push_back(rec);
    ASSERT_TRUE(writer.Add(rec).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_EQ(writer.records(), 500u);

  SpillReader reader(t.vfs, writer.path(), &t.env);
  std::string_view rec;
  std::size_t i = 0;
  while (reader.Next(&rec)) {
    ASSERT_LT(i, records.size());
    EXPECT_EQ(rec, records[i]);
    ++i;
  }
  ASSERT_TRUE(reader.status().ok()) << reader.status().ToString();
  EXPECT_EQ(i, records.size());
  EXPECT_GT(t.env.stats.bytes_written.load(), 0u);
  EXPECT_GT(t.env.stats.bytes_read.load(), 0u);
}

TEST(SpillFileTest, WriterDestructorRemovesFile) {
  TestEnv t;
  std::string path;
  {
    SpillWriter writer(t.env);
    ASSERT_TRUE(writer.Add("payload").ok());
    ASSERT_TRUE(writer.Finish().ok());
    path = writer.path();
    EXPECT_TRUE(t.vfs.Exists(path));
  }
  EXPECT_FALSE(t.vfs.Exists(path));
}

TEST(SpillFileTest, CorruptBlockIsTypedIoErrorNeverWrongData) {
  TestEnv t;
  SpillWriter writer(t.env);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(writer.Add("record-" + std::to_string(i)).ok());
  }
  ASSERT_TRUE(writer.Finish().ok());
  Result<std::string> bytes = t.vfs.ReadFile(writer.path());
  ASSERT_TRUE(bytes.ok());
  std::string corrupt = *bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  Result<std::unique_ptr<WritableFile>> f = t.vfs.OpenTrunc(writer.path());
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(corrupt).ok());
  ASSERT_TRUE((*f)->Close().ok());

  SpillReader reader(t.vfs, writer.path(), &t.env);
  std::string_view rec;
  std::size_t good = 0;
  while (reader.Next(&rec)) {
    // Records before the damaged block must still be exact.
    EXPECT_EQ(rec, "record-" + std::to_string(good));
    ++good;
  }
  EXPECT_FALSE(reader.status().ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError)
      << reader.status().ToString();
  EXPECT_LT(good, 100u);
}

// A MemVfs whose ReadAt fails, without reading, any request for bytes
// past the end of the file: a disk-backed ReadAt sizes its buffer from
// the request before it reads.
class BoundedReadVfs : public MemVfs {
 public:
  Result<std::string> ReadAt(const std::string& path, std::uint64_t offset,
                             std::size_t length) override {
    Result<std::uint64_t> size = FileSize(path);
    if (size.ok() && offset + length > *size) {
      ++oversized_reads;
      return InternalError("ReadAt past the end of " + path);
    }
    return MemVfs::ReadAt(path, offset, length);
  }
  int oversized_reads = 0;
};

TEST(SpillFileTest, OversizedBlockLengthIsIoErrorWithoutOversizedRead) {
  BoundedReadVfs vfs;
  SpillEnv env;
  env.vfs = &vfs;
  env.dir = "spill";
  SpillWriter writer(env);
  ASSERT_TRUE(writer.Add("record").ok());
  ASSERT_TRUE(writer.Finish().ok());
  Result<std::string> bytes = vfs.ReadFile(writer.path());
  ASSERT_TRUE(bytes.ok());
  // The first block header claims 0xFFFFFFF0 payload bytes.
  std::string damaged = *bytes;
  damaged.replace(0, 4, std::string("\xF0\xFF\xFF\xFF", 4));
  Result<std::unique_ptr<WritableFile>> f = vfs.OpenTrunc(writer.path());
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Append(damaged).ok());
  ASSERT_TRUE((*f)->Close().ok());

  SpillReader reader(vfs, writer.path(), &env);
  std::string_view rec;
  EXPECT_FALSE(reader.Next(&rec));
  EXPECT_EQ(reader.status().code(), StatusCode::kIoError)
      << reader.status().ToString();
  EXPECT_EQ(vfs.oversized_reads, 0);
}

TEST(SpillFileTest, InjectedWriteFaultLatches) {
  MemVfs base;
  FaultVfs fault(base);
  SpillEnv env;
  env.vfs = &fault;
  env.dir = "spill";
  FaultPlan plan;
  plan.fail_at_op = 2;  // survives CreateDirs, dies soon after
  plan.fail_enospc = true;
  fault.set_plan(plan);
  SpillWriter writer(env);
  Status first;
  for (int i = 0; i < 10000 && first.ok(); ++i) {
    first = writer.Add(std::string(100, 'x'));
  }
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), StatusCode::kIoError) << first.ToString();
  // Latched: later calls return the same failure, Finish included.
  EXPECT_FALSE(writer.Add("more").ok());
  EXPECT_FALSE(writer.Finish().ok());
}

TEST(SpillFileTest, RemoveSpillFilesSweepsOnlySpillFiles) {
  MemVfs vfs;
  ASSERT_TRUE(vfs.CreateDirs("dir").ok());
  for (const char* name : {"qfspill-1", "qfspill-2", "keep.dat"}) {
    Result<std::unique_ptr<WritableFile>> f =
        vfs.OpenTrunc(std::string("dir/") + name);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Append("x").ok());
    ASSERT_TRUE((*f)->Close().ok());
  }
  Result<std::size_t> removed = RemoveSpillFiles(vfs, "dir");
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 2u);
  EXPECT_FALSE(vfs.Exists("dir/qfspill-1"));
  EXPECT_TRUE(vfs.Exists("dir/keep.dat"));
  // Missing directory reads as zero orphans.
  Result<std::size_t> none = RemoveSpillFiles(vfs, "no-such-dir");
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(*none, 0u);
}

// ------------------------------------------------------- group sink

// Answer-shaped rows (group key, head value, weight) with duplicates, so
// the sink's per-partition dedup has work to do.
std::vector<Tuple> MakeAnswerRows(int rows, int groups, unsigned seed) {
  std::vector<Tuple> out;
  std::mt19937 rng(seed);
  for (int i = 0; i < rows; ++i) {
    out.push_back(
        {Value("g" + std::to_string(rng() % static_cast<unsigned>(groups))),
         Value(static_cast<int>(rng() % 40)),
         Value(static_cast<int>(rng() % 25))});
  }
  return out;
}

// GroupAggregate(Distinct(rows)) — what the sink must reproduce.
Relation SinkOracle(const std::vector<Tuple>& rows, AggKind kind) {
  Relation pushed("pushed", Schema({"K", "H", "V"}));
  for (const Tuple& row : rows) pushed.Add(row);
  return GroupAggregate(Distinct(pushed), {"K"}, kind, "V", "_agg", 1);
}

// Pushes `rows` through a SUM sink over `env` and drains it.
Result<Relation> RunSink(const std::vector<Tuple>& rows, SpillEnv& env,
                         QueryContext* ctx = nullptr) {
  SpillGroupSink sink(Schema({"K", "H", "V"}), /*key_columns=*/1,
                      AggKind::kSum, "V", "_agg", nullptr, env, ctx, nullptr);
  for (const Tuple& row : rows) {
    if (Status s = sink.Push(row); !s.ok()) return s;
  }
  return sink.Finish();
}

// FaultVfs-backed env with the small fanout/block sizes of TestEnv.
void PointAtFaultVfs(SpillEnv& env, FaultVfs& fault) {
  env.vfs = &fault;
  env.dir = "spill";
  env.fanout = 4;
  env.block_bytes = 512;
}

TEST(SpillKernelTest, FaultSweepNeverYieldsWrongRows) {
  // A one-shot injected I/O failure at every mutating operation in turn:
  // the sink either fails with the typed error or — when the fault
  // landed on an op the sink never reached — produces the exact oracle.
  std::vector<Tuple> rows = MakeAnswerRows(600, 23, 5);
  Relation oracle = SinkOracle(rows, AggKind::kSum);
  std::uint64_t total_ops = 0;
  {
    // MemVfs does not count ops; a fault-free FaultVfs run learns them.
    MemVfs base;
    FaultVfs fault(base);
    SpillEnv env;
    PointAtFaultVfs(env, fault);
    Result<Relation> r = RunSink(rows, env);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows(), oracle.rows());
    total_ops = fault.op_count();
  }
  ASSERT_GT(total_ops, 0u);
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    MemVfs base;
    FaultVfs fault(base);
    SpillEnv env;
    PointAtFaultVfs(env, fault);
    FaultPlan plan;
    plan.fail_at_op = k;
    fault.set_plan(plan);
    Result<Relation> r = RunSink(rows, env);
    if (r.ok()) {
      EXPECT_EQ(r->rows(), oracle.rows()) << "fault op " << k;
    } else {
      EXPECT_EQ(r.status().code(), StatusCode::kIoError)
          << "fault op " << k << ": " << r.status().ToString();
    }
  }
}

TEST(SpillKernelTest, CrashMidSpillIsTypedErrorAndLeavesOnlyOrphans) {
  std::vector<Tuple> rows = MakeAnswerRows(600, 23, 7);
  for (std::uint64_t crash_at : {3u, 9u, 20u}) {
    MemVfs base;
    FaultVfs fault(base);
    SpillEnv env;
    PointAtFaultVfs(env, fault);
    FaultPlan plan;
    plan.crash_at_op = crash_at;
    plan.torn_write_bytes = 7;
    fault.set_plan(plan);
    Result<Relation> r = RunSink(rows, env);
    EXPECT_FALSE(r.ok()) << "crash op " << crash_at;
    // Whatever the crash stranded is exactly what the orphan sweep
    // matches — the next OPEN would clean it.
    base.Crash();
    Result<std::vector<std::string>> left = base.ListDir("spill");
    ASSERT_TRUE(left.ok());
    for (const std::string& name : *left) {
      EXPECT_EQ(name.rfind(kSpillFilePrefix, 0), 0u) << name;
    }
    ASSERT_TRUE(RemoveSpillFiles(base, "spill").ok());
    Result<std::vector<std::string>> after = base.ListDir("spill");
    ASSERT_TRUE(after.ok());
    EXPECT_TRUE(after->empty());
  }
}

TEST(SpillGroupSinkTest, RecursesIntoOversizedPartitionsUnderBudget) {
  // Many groups over a fanout of 2: each level-0 partition holds about
  // half of the rows, more than the budget admits, so the sink re-splits
  // it with a level-salted hash until the pieces fit. (The grouped output
  // stays charged across partitions, so the budget leaves room for it.)
  std::vector<Tuple> rows = MakeAnswerRows(2000, 100, 13);
  Relation oracle = SinkOracle(rows, AggKind::kSum);
  const std::uint64_t row_bytes = ApproxTupleBytes(3);

  TestEnv t;
  t.env.fanout = 2;
  QueryContext ctx;
  ctx.set_memory_budget(400 * row_bytes);
  Result<Relation> r = RunSink(rows, t.env, &ctx);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows(), oracle.rows());
  EXPECT_GT(t.env.stats.recursions.load(), 0u);
  Result<std::vector<std::string>> left = t.vfs.ListDir("spill");
  ASSERT_TRUE(left.ok());
  EXPECT_TRUE(left->empty());

  // max_depth 1 forbids the re-split: the oversized partition is loaded
  // whole and the budget answers with the typed error instead.
  TestEnv shallow;
  shallow.env.fanout = 2;
  shallow.env.max_depth = 1;
  QueryContext tight;
  tight.set_memory_budget(400 * row_bytes);
  Result<Relation> capped = RunSink(rows, shallow.env, &tight);
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kResourceExhausted)
      << capped.status().ToString();
  EXPECT_EQ(shallow.env.stats.recursions.load(), 0u);
  Result<std::vector<std::string>> shallow_left = shallow.vfs.ListDir("spill");
  ASSERT_TRUE(shallow_left.ok());
  EXPECT_TRUE(shallow_left->empty());
}

TEST(SpillGroupSinkTest, MatchesGroupAggregateOverDistinctRows) {
  for (AggKind kind :
       {AggKind::kCount, AggKind::kSum, AggKind::kMin, AggKind::kMax}) {
    TestEnv t;
    Schema schema({"K", "H", "V"});
    SpillGroupSink sink(schema, /*key_columns=*/1, kind, "V", "_agg",
                        nullptr, t.env, nullptr, nullptr);
    Relation pushed("pushed", schema);
    std::mt19937 rng(9);
    for (int i = 0; i < 800; ++i) {
      Tuple row{Value("g" + std::to_string(rng() % 13)),
                Value(static_cast<int>(rng() % 40)),
                Value(static_cast<int>(rng() % 25))};
      pushed.Add(row);
      ASSERT_TRUE(sink.Push(row).ok());
    }
    Result<Relation> grouped = sink.Finish();
    ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
    Relation distinct = Distinct(pushed);
    Relation oracle = GroupAggregate(distinct, {"K"}, kind, "V", "_agg", 1);
    EXPECT_EQ(grouped->schema().columns(), oracle.schema().columns());
    EXPECT_EQ(grouped->rows(), oracle.rows())
        << "kind " << static_cast<int>(kind);
    EXPECT_EQ(sink.answer_rows(), distinct.size());
  }
}

TEST(SpillGroupSinkTest, RowCheckErrorAbortsFinish) {
  TestEnv t;
  Schema schema({"K", "V"});
  auto check = [](const Tuple& row) {
    if (row[1] == Value(-1)) {
      return InvalidArgumentError("negative weight");
    }
    return Status::Ok();
  };
  SpillGroupSink sink(schema, 1, AggKind::kSum, "V", "_agg", check, t.env,
                      nullptr, nullptr);
  ASSERT_TRUE(sink.Push({Value("a"), Value(3)}).ok());
  ASSERT_TRUE(sink.Push({Value("b"), Value(-1)}).ok());
  Result<Relation> grouped = sink.Finish();
  ASSERT_FALSE(grouped.ok());
  EXPECT_NE(grouped.status().ToString().find("negative weight"),
            std::string::npos);
}

// ------------------------------------- end-to-end flock differential

Relation MakeBaskets(int n_baskets, int n_items, unsigned seed) {
  Relation r("baskets", Schema({"BID", "Item"}));
  std::mt19937 rng(seed);
  for (int b = 0; b < n_baskets; ++b) {
    int size = 3 + static_cast<int>(rng() % 5);
    for (int i = 0; i < size; ++i) {
      r.AddRow({Value(b),
                Value("i" + std::to_string(rng() %
                                           static_cast<unsigned>(n_items)))});
    }
  }
  return Distinct(r);
}

// The tentpole's acceptance shape in miniature: a budget under the
// statement's in-memory peak that used to be a hard RESOURCE_EXHAUSTED
// either spills to the bit-identical answer or still fails typed — and at
// least one budget level must actually take the spill path and succeed,
// at every thread count.
TEST(SpillFlockTest, BudgetedEvaluationSpillsToIdenticalAnswer) {
  Database db;
  db.PutRelation(MakeBaskets(500, 25, 11));
  Result<QueryFlock> flock = MakeFlock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
      FilterCondition::MinSupport(10));
  ASSERT_TRUE(flock.ok()) << flock.status().ToString();

  // Unbudgeted baseline + its accounted peak.
  QueryContext base_ctx;
  Result<Relation> baseline = EvaluateFlock(
      *flock, db, {}, {.threads = 1, .ctx = &base_ctx});
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  std::uint64_t peak = base_ctx.peak_bytes();
  ASSERT_GT(peak, 0u);

  bool spilled_and_served = false;
  for (unsigned threads : {0u, 1u, 4u}) {
    for (std::uint64_t budget :
         {peak, peak - peak / 8, peak / 2, peak / 8}) {
      MemVfs vfs;
      SpillEnv env;
      env.vfs = &vfs;
      env.dir = "spill";
      env.fanout = 8;
      env.block_bytes = 4096;
      QueryContext ctx;
      ctx.set_memory_budget(budget);
      ctx.set_spill_env(&env);
      Result<Relation> r = EvaluateFlock(
          *flock, db, {}, {.threads = threads, .ctx = &ctx});
      if (r.ok()) {
        EXPECT_EQ(r->rows(), baseline->rows())
            << "threads " << threads << " budget " << budget;
        if (env.stats.activations.load() > 0) spilled_and_served = true;
      } else {
        EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted)
            << r.status().ToString();
      }
      // Spill files never outlive the statement.
      Result<std::vector<std::string>> left = vfs.ListDir("spill");
      ASSERT_TRUE(left.ok());
      EXPECT_TRUE(left->empty());
    }
  }
  EXPECT_TRUE(spilled_and_served);
}

}  // namespace
}  // namespace qf
