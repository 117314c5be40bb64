// Differential tests for the morsel-parallel evaluation engine: the flock
// evaluator, the plan executor, and the a-priori counters must return
// results *identical* to their serial runs for every thread count — same
// rows, same order — and must agree with the naive generate-and-test
// oracle on randomized workloads.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apriori/apriori.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "flocks/naive_eval.h"
#include "plan/executor.h"
#include "plan/plan.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

QueryFlock Flock(const char* text, FilterCondition filter) {
  auto f = MakeFlock(text, filter);
  EXPECT_TRUE(f.ok()) << f.status().ToString();
  return *f;
}

// Exact comparison — schema, rows, AND row order. The determinism
// contract promises byte-identical results, not just equal sets.
void ExpectIdentical(const Relation& serial, const Relation& parallel,
                     unsigned threads) {
  ASSERT_EQ(serial.schema(), parallel.schema()) << "threads=" << threads;
  ASSERT_EQ(serial.rows(), parallel.rows()) << "threads=" << threads;
}

void ExpectSameSet(const Relation& a, const Relation& b) {
  Relation sa = a, sb = b;
  sa.SortRows();
  sb.SortRows();
  EXPECT_EQ(sa.schema(), sb.schema());
  EXPECT_EQ(sa.rows(), sb.rows());
}

Database RandomBaskets(std::uint64_t seed, std::uint32_t n_baskets = 300,
                       std::uint32_t n_items = 40) {
  BasketConfig config;
  config.n_baskets = n_baskets;
  config.n_items = n_items;
  config.avg_basket_size = 6;
  config.zipf_theta = 0.9;
  config.seed = seed;
  Database db;
  db.PutRelation(GenerateBaskets(config));
  return db;
}

// A randomized weighted-sales relation for SUM flocks: sales(BID, Item,
// Weight) with small non-negative integer weights.
Database RandomSales(std::uint64_t seed, bool negative_weights = false) {
  Rng rng(seed);
  Relation r("sales", Schema({"BID", "Item", "W"}));
  for (int bid = 0; bid < 120; ++bid) {
    std::size_t size = 2 + rng.NextBelow(5);
    for (std::size_t k = 0; k < size; ++k) {
      std::int64_t w = static_cast<std::int64_t>(rng.NextBelow(10));
      if (negative_weights && rng.NextBernoulli(0.05)) w = -w - 1;
      r.AddRow({Value(bid), Value("i" + std::to_string(rng.NextBelow(25))),
                Value(w)});
    }
  }
  Database db;
  db.PutRelation(std::move(r));
  return db;
}

TEST(ParallelEvalTest, FlockPairSupportMatchesSerialAndNaive) {
  for (std::uint64_t seed : {3u, 17u, 99u}) {
    Database db = RandomBaskets(seed);
    QueryFlock flock =
        Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
              FilterCondition::MinSupport(8));
    FlockEvalOptions serial_options;
    auto serial = EvaluateFlock(flock, db, serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (unsigned threads : kThreadCounts) {
      auto parallel = EvaluateFlock(flock, db, {}, {.threads = threads});
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdentical(*serial, *parallel, threads);
    }
    auto naive = NaiveEvaluateFlock(flock, db);
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    ExpectSameSet(*serial, *naive);
  }
}

TEST(ParallelEvalTest, UnionFlockDisjunctsEvaluateConcurrently) {
  for (std::uint64_t seed : {5u, 23u}) {
    Database db = RandomBaskets(seed);
    // Two disjuncts with differently named head variables (Fig. 4 shape).
    QueryFlock flock = Flock(
        "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n"
        "answer(C) :- baskets(C,$2) AND baskets(C,$1) AND $1 < $2",
        FilterCondition::MinSupport(6));
    auto serial = EvaluateFlock(flock, db);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (unsigned threads : kThreadCounts) {
      auto parallel = EvaluateFlock(flock, db, {}, {.threads = threads});
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdentical(*serial, *parallel, threads);
    }
  }
}

TEST(ParallelEvalTest, SumFilterMatchesSerial) {
  for (std::uint64_t seed : {7u, 31u}) {
    Database db = RandomSales(seed);
    QueryFlock flock =
        Flock("answer(B,W) :- sales(B,$i,W)",
              FilterCondition{FilterAgg::kSum, CompareOp::kGe, 25, 1});
    auto serial = EvaluateFlock(flock, db);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (unsigned threads : kThreadCounts) {
      auto parallel = EvaluateFlock(flock, db, {}, {.threads = threads});
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdentical(*serial, *parallel, threads);
    }
  }
}

TEST(ParallelEvalTest, NegativeWeightSumRejectedAtEveryThreadCount) {
  Database db = RandomSales(/*seed=*/41, /*negative_weights=*/true);
  QueryFlock flock =
      Flock("answer(B,W) :- sales(B,$i,W)",
            FilterCondition{FilterAgg::kSum, CompareOp::kGe, 25, 1});
  for (unsigned threads : kThreadCounts) {
    auto result = EvaluateFlock(flock, db, {}, {.threads = threads});
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition)
        << "threads=" << threads;
  }
}

TEST(ParallelEvalTest, PrefilterPlanMatchesSerialAndDirect) {
  for (std::uint64_t seed : {11u, 43u}) {
    Database db = RandomBaskets(seed);
    QueryFlock flock =
        Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
              FilterCondition::MinSupport(8));
    // Prefilter both parameters — two independent steps that the wave
    // scheduler runs concurrently, then the dependent final step.
    auto ok1 = MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0});
    ASSERT_TRUE(ok1.ok()) << ok1.status().ToString();
    auto ok2 = MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1});
    ASSERT_TRUE(ok2.ok());
    auto plan = PlanWithPrefilters(flock, {*ok1, *ok2});
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();

    auto serial = ExecutePlan(*plan, flock, db);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (unsigned threads : kThreadCounts) {
      PlanExecInfo info;
      auto parallel =
          ExecutePlan(*plan, flock, db, {}, {.threads = threads}, &info);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectIdentical(*serial, *parallel, threads);
      // Per-step info must arrive in step order regardless of scheduling.
      ASSERT_EQ(info.steps.size(), plan->steps.size());
      for (std::size_t k = 0; k < plan->steps.size(); ++k) {
        EXPECT_EQ(info.steps[k].step_name, plan->steps[k].result_name);
      }
    }
    auto direct = EvaluateFlock(flock, db);
    ASSERT_TRUE(direct.ok());
    ExpectIdentical(*direct, *serial, /*threads=*/1);
  }
}

TEST(ParallelEvalTest, ExecutePlanErrorIsDeterministic) {
  // A flock over a predicate missing from the database fails identically
  // at every thread count.
  Database db = RandomBaskets(59);
  QueryFlock flock =
      Flock("answer(B) :- missing(B,$1)", FilterCondition::MinSupport(2));
  QueryPlan plan = TrivialPlan(flock);
  for (unsigned threads : kThreadCounts) {
    auto result = ExecutePlan(plan, flock, db, {}, {.threads = threads});
    ASSERT_FALSE(result.ok()) << "threads=" << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
  }
}

TEST(ParallelEvalTest, AprioriItemsetsMatchSerial) {
  for (std::uint64_t seed : {13u, 77u}) {
    Database db = RandomBaskets(seed, /*n_baskets=*/1200, /*n_items=*/30);
    auto data = BasketsFromRelation(db.Get("baskets"), "BID", "Item");
    ASSERT_TRUE(data.ok()) << data.status().ToString();

    AprioriOptions serial_options;
    serial_options.min_support = 20;
    AprioriStats serial_stats;
    std::vector<Itemset> serial =
        AprioriFrequentItemsets(*data, serial_options, {}, &serial_stats);
    ASSERT_FALSE(serial.empty());

    for (unsigned threads : kThreadCounts) {
      AprioriStats stats;
      std::vector<Itemset> parallel = AprioriFrequentItemsets(
          *data, serial_options, {.threads = threads}, &stats);
      ASSERT_EQ(serial.size(), parallel.size()) << "threads=" << threads;
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].items, parallel[i].items);
        EXPECT_EQ(serial[i].support, parallel[i].support);
      }
      EXPECT_EQ(serial_stats.candidates_per_level, stats.candidates_per_level);
      EXPECT_EQ(serial_stats.frequent_per_level, stats.frequent_per_level);
    }
  }
}

TEST(ParallelEvalTest, AprioriAndNaivePairCountersMatchSerial) {
  Database db = RandomBaskets(29, /*n_baskets=*/1500, /*n_items=*/25);
  auto data = BasketsFromRelation(db.Get("baskets"), "BID", "Item");
  ASSERT_TRUE(data.ok());
  std::vector<Itemset> apriori_serial = AprioriFrequentPairs(*data, 15);
  std::vector<Itemset> naive_serial = NaiveFrequentPairs(*data, 15);
  ASSERT_FALSE(apriori_serial.empty());
  for (unsigned threads : kThreadCounts) {
    std::vector<Itemset> apriori =
        AprioriFrequentPairs(*data, 15, {.threads = threads});
    std::vector<Itemset> naive =
        NaiveFrequentPairs(*data, 15, {.threads = threads});
    ASSERT_EQ(apriori.size(), apriori_serial.size()) << "threads=" << threads;
    ASSERT_EQ(naive.size(), naive_serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < apriori.size(); ++i) {
      EXPECT_EQ(apriori[i].items, apriori_serial[i].items);
      EXPECT_EQ(apriori[i].support, apriori_serial[i].support);
    }
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].items, naive_serial[i].items);
      EXPECT_EQ(naive[i].support, naive_serial[i].support);
    }
  }
}

// Strips the fields that legitimately vary with execution (wall time) or
// with the serial/parallel path choice (morsel decomposition) so trees
// from different thread counts can be compared exactly.
void ZeroTimingAndMorsels(OpMetrics& node) {
  node.wall_ns = 0;
  node.morsels = 0;
  for (auto& child : node.children) ZeroTimingAndMorsels(*child);
}

TEST(ParallelEvalTest, FlockMetricsIdenticalAcrossThreadCounts) {
  // The determinism contract extends to observability: the metrics tree —
  // shape, node names, and every row counter — is identical for every
  // thread count once timing and morsel counts are zeroed out.
  Database db = RandomBaskets(21);
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(8));

  FlockEvalOptions plain_options;
  auto plain = EvaluateFlock(flock, db, plain_options);
  ASSERT_TRUE(plain.ok());

  std::string reference_tree;
  for (unsigned threads : kThreadCounts) {
    OpMetrics metrics;
    auto result = EvaluateFlock(
        flock, db, {}, {.threads = threads, .metrics = &metrics});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    // Collecting metrics must not change the result.
    ExpectIdentical(*plain, *result, threads);
    // The root totals the answer cardinality.
    EXPECT_EQ(metrics.op, "flock");
    EXPECT_EQ(metrics.rows_out, result->size());
    // Interior nodes report exact cardinalities too.
    const OpMetrics* group = metrics.Find("group_by");
    ASSERT_NE(group, nullptr);
    const OpMetrics* filter = metrics.Find("filter");
    ASSERT_NE(filter, nullptr);
    EXPECT_EQ(filter->rows_in, group->rows_out);
    ZeroTimingAndMorsels(metrics);
    std::string tree = metrics.ToJson();
    if (reference_tree.empty()) {
      reference_tree = tree;
    } else {
      EXPECT_EQ(tree, reference_tree) << "threads=" << threads;
    }
  }
}

TEST(ParallelEvalTest, UnionFlockMetricsCoverEveryDisjunct) {
  Database db = RandomBaskets(33);
  QueryFlock flock = Flock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n"
      "answer(C) :- baskets(C,$2) AND baskets(C,$1) AND $1 < $2",
      FilterCondition::MinSupport(6));
  for (unsigned threads : kThreadCounts) {
    OpMetrics metrics;
    auto result = EvaluateFlock(
        flock, db, {}, {.threads = threads, .metrics = &metrics});
    ASSERT_TRUE(result.ok());
    // One pre-allocated child per disjunct (written concurrently when
    // threads > 1), plus the union/group/filter/project tail.
    std::size_t disjuncts = 0;
    std::uint64_t union_in = 0;
    for (const auto& child : metrics.children) {
      if (child->op == "disjunct") ++disjuncts;
    }
    EXPECT_EQ(disjuncts, 2u) << "threads=" << threads;
    const OpMetrics* u = metrics.Find("union");
    ASSERT_NE(u, nullptr) << "threads=" << threads;
    union_in = u->rows_in + u->rows_in_right;
    // The union consumed exactly what the disjuncts produced.
    std::uint64_t produced = 0;
    for (const auto& child : metrics.children) {
      if (child->op == "disjunct") produced += child->rows_out;
    }
    EXPECT_EQ(union_in, produced) << "threads=" << threads;
  }
}

TEST(ParallelEvalTest, PlanMetricsStepsArriveInPlanOrder) {
  Database db = RandomBaskets(47);
  QueryFlock flock =
      Flock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
            FilterCondition::MinSupport(8));
  auto ok1 = MakeFilterStep(flock, "ok1", {"1"}, std::vector<std::size_t>{0});
  ASSERT_TRUE(ok1.ok());
  auto ok2 = MakeFilterStep(flock, "ok2", {"2"}, std::vector<std::size_t>{1});
  ASSERT_TRUE(ok2.ok());
  auto plan = PlanWithPrefilters(flock, {*ok1, *ok2});
  ASSERT_TRUE(plan.ok());

  auto plain = ExecutePlan(*plan, flock, db);
  ASSERT_TRUE(plain.ok());

  std::string reference_tree;
  for (unsigned threads : kThreadCounts) {
    OpMetrics metrics;
    auto result = ExecutePlan(
        *plan, flock, db, {}, {.threads = threads, .metrics = &metrics});
    ASSERT_TRUE(result.ok());
    ExpectIdentical(*plain, *result, threads);
    EXPECT_EQ(metrics.op, "plan");
    EXPECT_EQ(metrics.rows_out, result->size());
    // Step nodes are pre-allocated in plan order, so even though the
    // wave scheduler may run ok1/ok2 concurrently, children[k] is step k.
    ASSERT_GE(metrics.children.size(), plan->steps.size());
    for (std::size_t k = 0; k < plan->steps.size(); ++k) {
      EXPECT_EQ(metrics.children[k]->op, "step");
      EXPECT_EQ(metrics.children[k]->detail.substr(
                    0, plan->steps[k].result_name.size()),
                plan->steps[k].result_name);
    }
    ZeroTimingAndMorsels(metrics);
    std::string tree = metrics.ToJson();
    if (reference_tree.empty()) {
      reference_tree = tree;
    } else {
      EXPECT_EQ(tree, reference_tree) << "threads=" << threads;
    }
  }
}

TEST(ParallelEvalTest, AprioriMetricsLevelsThreadInvariant) {
  Database db = RandomBaskets(61, /*n_baskets=*/1200, /*n_items=*/30);
  auto data = BasketsFromRelation(db.Get("baskets"), "BID", "Item");
  ASSERT_TRUE(data.ok());
  std::string reference_tree;
  for (unsigned threads : kThreadCounts) {
    OpMetrics metrics;
    AprioriOptions options;
    options.min_support = 20;
    std::vector<Itemset> frequent = AprioriFrequentItemsets(
        *data, options, {.threads = threads, .metrics = &metrics});
    ASSERT_FALSE(frequent.empty());
    EXPECT_EQ(metrics.op, "apriori");
    // One count_level node per level, each scanning every basket.
    ASSERT_FALSE(metrics.children.empty());
    for (const auto& level : metrics.children) {
      EXPECT_EQ(level->op, "count_level");
      EXPECT_EQ(level->rows_in, data->baskets.size());
    }
    ZeroTimingAndMorsels(metrics);
    std::string tree = metrics.ToJson();
    if (reference_tree.empty()) {
      reference_tree = tree;
    } else {
      EXPECT_EQ(tree, reference_tree) << "threads=" << threads;
    }
  }

  // The single-piece boundary (256-basket morsels): 511 baskets count as
  // one piece at every thread count, 512 split into two morsels at
  // threads >= 2. Itemsets, pairs and level counters match the threads 1
  // run, and every count_level node reports the decomposition.
  auto same = [](const std::vector<Itemset>& a, const std::vector<Itemset>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].items != b[i].items || a[i].support != b[i].support) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t n : {std::size_t{511}, std::size_t{512}}) {
    Database sized = RandomBaskets(67, static_cast<std::uint32_t>(n), 30);
    auto baskets = BasketsFromRelation(sized.Get("baskets"), "BID", "Item");
    ASSERT_TRUE(baskets.ok());
    ASSERT_EQ(baskets->baskets.size(), n);
    AprioriOptions options;
    options.min_support = 10;
    OpMetrics one_m, one_pairs_m;
    std::vector<Itemset> one =
        AprioriFrequentItemsets(*baskets, options, {.metrics = &one_m});
    std::vector<Itemset> one_pairs =
        AprioriFrequentPairs(*baskets, 10, {.metrics = &one_pairs_m});
    ASSERT_GT(one_m.children.size(), 2u);
    ZeroTimingAndMorsels(one_m);
    ZeroTimingAndMorsels(one_pairs_m);
    for (unsigned threads : {0u, 1u, 2u, 8u}) {
      OpMetrics m, pairs_m;
      EXPECT_TRUE(same(AprioriFrequentItemsets(
                           *baskets, options,
                           {.threads = threads, .metrics = &m}),
                       one))
          << "threads=" << threads << " n=" << n;
      EXPECT_TRUE(same(AprioriFrequentPairs(
                           *baskets, 10,
                           {.threads = threads, .metrics = &pairs_m}),
                       one_pairs))
          << "threads=" << threads << " n=" << n;
      std::uint64_t morsels = threads >= 2 && n == 512 ? 2 : 0;
      for (const OpMetrics* tree : {&m, &pairs_m}) {
        for (const auto& level : tree->children) {
          EXPECT_EQ(level->morsels, morsels)
              << level->detail << " threads=" << threads << " n=" << n;
        }
      }
      ZeroTimingAndMorsels(m);
      ZeroTimingAndMorsels(pairs_m);
      EXPECT_EQ(m.ToJson(), one_m.ToJson()) << "threads=" << threads;
      EXPECT_EQ(pairs_m.ToJson(), one_pairs_m.ToJson());
    }
  }
}

TEST(ParallelEvalTest, TraceSinkSeesBalancedSpansUnderParallelism) {
  // Span events from concurrently evaluated disjuncts interleave in the
  // sink; every begin must still pair with an end (TSan runs this too).
  Database db = RandomBaskets(71);
  QueryFlock flock = Flock(
      "answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2\n"
      "answer(C) :- baskets(C,$2) AND baskets(C,$1) AND $1 < $2",
      FilterCondition::MinSupport(6));
  MemoryTraceSink sink;
  OpMetrics metrics;
  auto result = EvaluateFlock(
      flock, db, {}, {.threads = 8, .metrics = &metrics, .trace = &sink});
  ASSERT_TRUE(result.ok());
  std::size_t begins = 0, ends = 0;
  for (const std::string& line : sink.Lines()) {
    if (line.find("\"ev\":\"B\"") != std::string::npos) ++begins;
    if (line.find("\"ev\":\"E\"") != std::string::npos) ++ends;
  }
  EXPECT_GT(begins, 0u);
  EXPECT_EQ(begins, ends);
}

}  // namespace
}  // namespace qf
