// Differential suite for the flock evaluator's fused final stage: every
// disjunct streams its final join into one group table (or, under a spill
// grant, the grace-hash sink). EvaluateFlock must agree with the
// generate-and-test oracle (NaiveEvaluateFlock) and with the materialized
// pipeline it replaced (join -> select -> project -> union -> group_by),
// rebuilt here from the relational operators, bit for bit at every thread
// count — float SUM included.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/resource.h"
#include "common/rng.h"
#include "common/vfs.h"
#include "flocks/cq_eval.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "flocks/naive_eval.h"
#include "relational/ops.h"
#include "relational/spill.h"
#include "workload/graph_gen.h"

namespace qf {
namespace {

constexpr unsigned kThreadCounts[] = {0, 1, 2, 4};

QueryFlock Flock(const std::string& text, FilterCondition filter) {
  Result<QueryFlock> f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

FilterCondition Agg(FilterAgg agg, double threshold, std::size_t head) {
  return FilterCondition{agg, CompareOp::kGe, threshold, head};
}

// b(B, I): integer baskets and items; w(B, W): one weight per basket,
// multiples of `step`; z(I, J): pairs for negation; flag(1).
Database Baskets(std::uint64_t seed, int n_baskets, std::uint32_t n_items,
                 double step) {
  Rng rng(seed);
  Relation b("b", Schema({"B", "I"}));
  Relation w("w", Schema({"B", "W"}));
  Relation z("z", Schema({"I", "J"}));
  for (int basket = 0; basket < n_baskets; ++basket) {
    int size = 2 + static_cast<int>(rng.NextBelow(6));
    for (int k = 0; k < size; ++k) {
      // Skewed items: small ids are popular.
      std::uint32_t popular = 1 + rng.NextBelow(n_items);
      std::int64_t item = rng.NextBelow(popular);
      b.AddRow({Value(std::int64_t{basket}), Value(item)});
    }
    w.AddRow({Value(std::int64_t{basket}),
              Value(step * static_cast<double>(1 + rng.NextBelow(40)))});
  }
  for (std::uint32_t k = 0; k < n_items; ++k) {
    z.AddRow({Value(std::int64_t{rng.NextBelow(n_items)}),
              Value(std::int64_t{rng.NextBelow(n_items)})});
  }
  b.Dedup();
  z.Dedup();
  Relation flag("flag", Schema({"F"}));
  flag.AddRow({Value(std::int64_t{1})});
  Database db;
  db.PutRelation(std::move(b));
  db.PutRelation(std::move(w));
  db.PutRelation(std::move(z));
  db.PutRelation(std::move(flag));
  db.PutRelation(Relation("empty", Schema({"I", "J"})));
  return db;
}

// The pre-streaming pipeline, serial: materialize each disjunct's
// bindings, rename to canonical heads, union, group, filter, project.
Relation Materialized(const QueryFlock& flock, const Database& db) {
  std::vector<std::string> params = FlockParameterColumns(flock);
  std::vector<std::string> columns = params;
  for (std::size_t i = 0; i < flock.query.head_arity(); ++i) {
    columns.push_back("_h" + std::to_string(i));
  }
  Relation answers{Schema(columns)};
  for (const ConjunctiveQuery& cq : flock.query.disjuncts) {
    std::vector<std::string> wanted = params;
    wanted.insert(wanted.end(), cq.head_vars.begin(), cq.head_vars.end());
    Result<Relation> r =
        EvaluateConjunctiveBindings(cq, PredicateResolver(db), wanted);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    answers = Union(answers, Rename(std::move(*r), columns));
  }
  const FilterCondition& filter = flock.filter;
  AggKind kind = filter.agg == FilterAgg::kCount ? AggKind::kCount
                 : filter.agg == FilterAgg::kSum ? AggKind::kSum
                 : filter.agg == FilterAgg::kMin ? AggKind::kMin
                                                 : AggKind::kMax;
  std::string agg = filter.agg == FilterAgg::kCount
                        ? ""
                        : "_h" + std::to_string(filter.agg_head_index);
  Relation grouped = GroupAggregate(answers, params, kind, agg, "_agg", 1);
  Relation passing = Select(grouped, [&](const Tuple& t) {
    return filter.Accepts(t.back());
  });
  Relation result = Project(passing, params);
  result.SortRows();
  return result;
}

Relation Sorted(Relation r) {
  r.SortRows();
  return r;
}

// EvaluateFlock at every thread count equals the materialized pipeline
// exactly (rows and order) and, when `oracle`, the naive evaluator.
void ExpectAgrees(const QueryFlock& flock, const Database& db,
                  bool oracle = true) {
  Relation expect = Materialized(flock, db);
  if (oracle) {
    Result<Relation> naive = NaiveEvaluateFlock(flock, db);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ASSERT_EQ(Sorted(*naive).rows(), expect.rows()) << flock.ToString();
  }
  for (unsigned threads : kThreadCounts) {
    FlockEvalInfo info;
    Result<Relation> r =
        EvaluateFlock(flock, db, {}, {.threads = threads}, nullptr, &info);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->schema().columns(), FlockParameterColumns(flock));
    ASSERT_EQ(r->rows(), expect.rows())
        << flock.ToString() << " threads=" << threads;
  }
}

TEST(FusedPipelineTest, PairsAgreeWithOracle) {
  for (std::uint64_t seed : {1, 2, 3}) {
    Database db = Baskets(seed, 120, 12, 1.0);
    ExpectAgrees(Flock("answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2",
                       FilterCondition::MinSupport(4)),
                 db);
  }
}

TEST(FusedPipelineTest, UnionWithOverlappingDisjunctsDedupsAcrossThem) {
  Database db = Baskets(4, 120, 12, 1.0);
  // The second disjunct's answers are a subset of the first's; the third
  // repeats the first with its subgoals swapped. COUNT must see each
  // (assignment, basket) answer once.
  QueryFlock flock = Flock(
      "answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2\n"
      "answer(C) :- b(C,$1) AND b(C,$2) AND $1 < $2 AND $1 < 4\n"
      "answer(D) :- b(D,$2) AND b(D,$1) AND $1 < $2",
      FilterCondition::MinSupport(5));
  ExpectAgrees(flock, db);
  OpMetrics metrics;
  FlockEvalInfo info;
  ASSERT_TRUE(
      EvaluateFlock(flock, db, {}, {.metrics = &metrics}, nullptr, &info)
          .ok());
  const OpMetrics* u = metrics.Find("union");
  ASSERT_NE(u, nullptr);
  // Three disjuncts pushed more rows than the union kept.
  EXPECT_GT(u->rows_in, u->rows_out);
  EXPECT_EQ(u->rows_out, info.answer_rows);
}

TEST(FusedPipelineTest, NegationsAppliedInTheStream) {
  Database db = Baskets(5, 120, 12, 1.0);
  // NOT z($1,$2) binds only after the final join: probed per streamed row.
  ExpectAgrees(
      Flock("answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 AND NOT z($1,$2)",
            FilterCondition::MinSupport(3)),
      db);
  // An empty negated relation drops nothing.
  ExpectAgrees(Flock("answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 AND "
                     "NOT empty($1,$2)",
                     FilterCondition::MinSupport(3)),
               db);
  // A negation sharing no column with the body: a present fact drops
  // every row, an absent one none.
  ExpectAgrees(Flock("answer(B) :- b(B,$1) AND b(B,$2) AND NOT flag(1)",
                     FilterCondition::MinSupport(2)),
               db);
  ExpectAgrees(Flock("answer(B) :- b(B,$1) AND b(B,$2) AND NOT flag(2)",
                     FilterCondition::MinSupport(6)),
               db);
}

TEST(FusedPipelineTest, ConstantOnlySubgoals) {
  Database db = Baskets(6, 100, 10, 1.0);
  // A positive constant-only subgoal joins as a guard (cross product); a
  // constant comparison decides emptiness up front.
  ExpectAgrees(Flock("answer(B) :- b(B,$1) AND flag(1)",
                     FilterCondition::MinSupport(5)),
               db);
  ExpectAgrees(Flock("answer(B) :- b(B,$1) AND flag(2)",
                     FilterCondition::MinSupport(1)),
               db);
  ExpectAgrees(Flock("answer(B) :- b(B,$1) AND b(B,$2) AND 1 < 2 AND $1 < $2",
                     FilterCondition::MinSupport(3)),
               db);
  ExpectAgrees(Flock("answer(B) :- b(B,$1) AND b(B,3)",
                     FilterCondition::MinSupport(3)),
               db);
}

TEST(FusedPipelineTest, SinglePositiveSubgoalStreamsWithoutAJoin) {
  Database db = Baskets(7, 150, 12, 1.0);
  QueryFlock flock =
      Flock("answer(B) :- b(B,$1) AND $1 < 9", FilterCondition::MinSupport(6));
  ExpectAgrees(flock, db);
  OpMetrics metrics;
  ASSERT_TRUE(EvaluateFlock(flock, db, {}, {.metrics = &metrics}).ok());
  EXPECT_NE(metrics.Find("project"), nullptr);
  EXPECT_EQ(metrics.Find("join"), nullptr);
}

TEST(FusedPipelineTest, EveryAggregateKind) {
  // Weights are multiples of 0.25, so every sum is exact and the oracle's
  // own summation order cannot matter.
  Database db = Baskets(8, 120, 10, 0.25);
  const std::string query =
      "answer(B,W) :- b(B,$1) AND b(B,$2) AND $1 < $2 AND w(B,W)";
  ExpectAgrees(Flock(query, Agg(FilterAgg::kSum, 20, 1)), db);
  ExpectAgrees(Flock(query, Agg(FilterAgg::kMax, 9.5, 1)), db);
  ExpectAgrees(Flock(query, Agg(FilterAgg::kCount, 4, 0)), db);
  // MIN is monotone as an upper bound: MIN(W) <= c.
  ExpectAgrees(Flock(query, {FilterAgg::kMin, CompareOp::kLe, 1.0, 1}), db);
}

TEST(FusedPipelineTest, FloatSumIsBitIdenticalAtEveryThreadCount) {
  // Enough rows for many probe morsels; weights are not dyadic, so any
  // change in the per-group association order would show in the sums.
  Database db = Baskets(9, 4000, 60, 0.1);
  const std::string query =
      "answer(B,W) :- b(B,$1) AND b(B,$2) AND $1 < $2 AND w(B,W)";
  // Thresholds at exact group sums: a sum off by one ulp flips the answer.
  Relation pairs = Materialized(Flock(query, Agg(FilterAgg::kSum, 0, 1)), db);
  ASSERT_GT(pairs.size(), 50u);
  std::vector<std::string> params = {"$1", "$2"};
  Result<Relation> answers = EvaluateConjunctiveBindings(
      Flock(query, Agg(FilterAgg::kSum, 0, 1)).query.disjuncts[0],
      PredicateResolver(db), {"$1", "$2", "B", "W"});
  ASSERT_TRUE(answers.ok());
  Relation sums = GroupAggregate(*answers, params, AggKind::kSum, "W", "s", 1);
  for (std::size_t k = 0; k < sums.size(); k += sums.size() / 7) {
    double threshold = sums.rows()[k].back().AsDouble();
    QueryFlock flock = Flock(query, Agg(FilterAgg::kSum, threshold, 1));
    ExpectAgrees(flock, db, /*oracle=*/false);
  }
}

TEST(FusedPipelineTest, GroupTableSumIsBitIdenticalAtEveryThreadCount) {
  Rng rng(10);
  Relation rel{Schema({"K", "V"})};
  for (int i = 0; i < 20000; ++i) {
    rel.AddRow({Value(std::int64_t{rng.NextBelow(97)}),
                Value(rng.NextDouble() * 1e3 + 1e-7 * i)});
  }
  Relation one = GroupAggregate(rel, {"K"}, AggKind::kSum, "V", "s", 1);
  for (unsigned threads : kThreadCounts) {
    EXPECT_EQ(GroupAggregate(rel, {"K"}, AggKind::kSum, "V", "s", threads)
                  .rows(),
              one.rows())
        << "threads=" << threads;
  }
}

TEST(FusedPipelineTest, BudgetedOnePieceStreamChargesOnlyWhatTheTableKeeps) {
  // 200k rows of 10 distinct values, streamed as one piece under a budget
  // they never approach: the table keeps 10 rows and 10 groups, so the
  // governor's high-water mark stays within those plus one charge
  // stride, never the pushed input.
  constexpr std::size_t kRows = 200000;
  QueryContext ctx;
  ctx.set_memory_budget(std::uint64_t{1} << 30);
  GroupTable table(1, 1, AggKind::kCount, 0, /*distinct=*/true, nullptr,
                   &ctx);
  Status s = table.Stream(
      1, kRows, 4096, nullptr,
      [](std::size_t begin, std::size_t end, const auto& push) {
        Tuple row(1);
        for (std::size_t r = begin; r < end; ++r) {
          row[0] = Value(static_cast<std::int64_t>(r % 10));
          if (!push(row)) break;
        }
      });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(table.pushed(), kRows);
  EXPECT_EQ(table.rows(), 10u);
  EXPECT_EQ(table.groups(), 10u);
  EXPECT_LE(ctx.peak_bytes(),
            table.charged() + QueryContext::kPollStride * ApproxTupleBytes(1));
}

TEST(FusedPipelineTest, GraphPathsAgreeWithOracle) {
  Database db;
  db.PutRelation(GenerateGraph({.n_nodes = 40, .avg_out_degree = 3,
                                .target_theta = 0.7, .seed = 11}));
  ExpectAgrees(Flock("answer(X) :- arc($1,X) AND arc(X,Y)",
                     FilterCondition::MinSupport(3)),
               db);
  ExpectAgrees(Flock("answer(Y) :- arc($1,X) AND arc(X,Y) AND arc(Y,$2)",
                     FilterCondition::MinSupport(2)),
               db);
  ExpectAgrees(Flock("answer(X) :- arc($1,X) AND arc(X,Y) AND NOT arc(Y,$1)",
                     FilterCondition::MinSupport(3)),
               db);
}

// The serial row sink (CqEvalOptions::rows) sees the materialized
// bindings in their order, duplicates included, at every thread count.
TEST(FusedPipelineTest, RowSinkSeesTheMaterializedRowsInOrder) {
  Database db = Baskets(8, 120, 12, 1.0);
  for (const char* text :
       {"answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2 AND NOT z($1,$2)",
        "answer(B) :- b(B,$1) AND $1 < 9",
        "answer(B) :- b(B,$1) AND flag(1)",
        "answer(B) :- b(B,$1) AND b(B,$2) AND 2 < 1"}) {
    QueryFlock flock = Flock(text, FilterCondition::MinSupport(1));
    const ConjunctiveQuery& cq = flock.query.disjuncts[0];
    std::vector<std::string> wanted = FlockParameterColumns(flock);
    wanted.insert(wanted.end(), cq.head_vars.begin(), cq.head_vars.end());
    Result<Relation> expect =
        EvaluateConjunctiveBindings(cq, PredicateResolver(db), wanted);
    ASSERT_TRUE(expect.ok()) << expect.status().ToString();
    for (unsigned threads : kThreadCounts) {
      Relation seen{Schema(wanted)};
      CqEvalOptions sink;
      sink.rows = [&seen](const Tuple& row) {
        seen.Add(row);
        return Status::Ok();
      };
      Result<Relation> r = EvaluateConjunctiveBindings(
          cq, PredicateResolver(db), wanted, sink, {.threads = threads});
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_TRUE(r->empty());
      seen.Dedup();
      EXPECT_EQ(seen.rows(), expect->rows()) << text << " threads=" << threads;
    }
  }
}

TEST(FusedPipelineTest, RowSinkErrorStopsTheStream) {
  Database db = Baskets(9, 120, 12, 1.0);
  QueryFlock flock = Flock("answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2",
                           FilterCondition::MinSupport(1));
  std::size_t calls = 0;
  CqEvalOptions sink;
  sink.rows = [&calls](const Tuple&) {
    return ++calls == 5 ? FailedPreconditionError("sink full") : Status::Ok();
  };
  Result<Relation> r = EvaluateConjunctiveBindings(
      flock.query.disjuncts[0], PredicateResolver(db), {"$1", "$2", "B"},
      sink, {.threads = 4});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().message(), "sink full");
  EXPECT_EQ(calls, 5u);
}

TEST(FusedPipelineTest, NegativeSumWeightIsRejected) {
  Database db = Baskets(12, 60, 8, 1.0);
  Relation w("w", Schema({"B", "W"}));
  for (const Tuple& t : db.Get("w").rows()) {
    w.AddRow({t[0], Value(t[0].AsInt() == 17 ? -1.0 : 2.0)});
  }
  db.PutRelation(std::move(w));
  QueryFlock flock = Flock("answer(B,W) :- b(B,$1) AND b(B,$2) AND w(B,W)",
                           Agg(FilterAgg::kSum, 3, 1));
  for (unsigned threads : kThreadCounts) {
    Result<Relation> r = EvaluateFlock(flock, db, {}, {.threads = threads});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(FusedPipelineTest, ChargeFaultsTripTypedNeverTruncated) {
  Database db = Baskets(13, 2500, 40, 1.0);
  QueryFlock flock = Flock("answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2",
                           FilterCondition::MinSupport(20));
  Result<Relation> baseline = EvaluateFlock(flock, db);
  ASSERT_TRUE(baseline.ok());
  for (unsigned threads : {1u, 4u}) {
    std::size_t tripped = 0;
    for (std::uint64_t n = 1;; ++n) {
      QueryContext ctx;
      ctx.set_fail_after_charges(n);
      Result<Relation> r =
          EvaluateFlock(flock, db, {}, {.threads = threads, .ctx = &ctx});
      if (r.ok()) {
        EXPECT_EQ(r->rows(), baseline->rows()) << "n=" << n;
        break;
      }
      EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
      ++tripped;
      ASSERT_LT(n, 5000u) << "the fault injector never ran out";
    }
    // Trips at every charge point: scans, the stream's buffers and the
    // group table.
    EXPECT_GT(tripped, 3u) << "threads=" << threads;
  }
}

TEST(FusedPipelineTest, DeadlineTripsTypedNeverTruncated) {
  Database db = Baskets(14, 6000, 60, 1.0);
  QueryFlock flock = Flock("answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2",
                           FilterCondition::MinSupport(20));
  Result<Relation> baseline = EvaluateFlock(flock, db);
  ASSERT_TRUE(baseline.ok());
  for (unsigned threads : kThreadCounts) {
    QueryContext ctx;
    ctx.set_timeout_ms(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    Result<Relation> r =
        EvaluateFlock(flock, db, {}, {.threads = threads, .ctx = &ctx});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
    // A deadline that expires while the stream runs.
    for (std::int64_t ms : {1, 3, 10}) {
      QueryContext live;
      live.set_timeout_ms(ms);
      Result<Relation> s =
          EvaluateFlock(flock, db, {}, {.threads = threads, .ctx = &live});
      if (s.ok()) {
        EXPECT_EQ(s->rows(), baseline->rows());
      } else {
        EXPECT_EQ(s.status().code(), StatusCode::kDeadlineExceeded);
      }
    }
  }
}

TEST(FusedPipelineTest, SubPeakBudgetSpillsToTheIdenticalAnswer) {
  Database db = Baskets(15, 3000, 50, 0.1);
  for (bool sum : {false, true}) {
    QueryFlock flock =
        sum ? Flock("answer(B,W) :- w(B,W) AND b(B,$1) AND b(B,$2) AND "
                    "$1 < $2",
                    Agg(FilterAgg::kSum, 4, 1))
            : Flock("answer(B) :- b(B,$1) AND b(B,$2) AND $1 < $2",
                    FilterCondition::MinSupport(15));
    QueryContext unbudgeted;
    Result<Relation> baseline =
        EvaluateFlock(flock, db, {}, {.ctx = &unbudgeted});
    ASSERT_TRUE(baseline.ok());
    const std::uint64_t peak = unbudgeted.peak_bytes();
    for (unsigned threads : kThreadCounts) {
      bool spilled = false;
      for (std::uint64_t budget : {peak, peak - peak / 4, peak / 2}) {
        MemVfs vfs;
        SpillEnv env;
        env.vfs = &vfs;
        env.dir = "spill";
        env.fanout = 8;
        QueryContext ctx;
        ctx.set_memory_budget(budget);
        ctx.set_spill_env(&env);
        OpMetrics metrics;
        Result<Relation> r = EvaluateFlock(
            flock, db, {},
            {.threads = threads, .metrics = &metrics, .ctx = &ctx});
        if (!r.ok()) {
          EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
        } else {
          EXPECT_EQ(r->rows(), baseline->rows()) << "threads=" << threads;
          const OpMetrics* group = metrics.Find("group_by");
          ASSERT_NE(group, nullptr);
          bool engaged = group->detail.find("[spill]") != std::string::npos;
          EXPECT_EQ(engaged, env.stats.activations.load() > 0);
          spilled = spilled || engaged;
        }
        Result<std::vector<std::string>> left = vfs.ListDir("spill");
        ASSERT_TRUE(left.ok());
        EXPECT_TRUE(left->empty());
      }
      EXPECT_TRUE(spilled) << "sum=" << sum << " threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace qf
