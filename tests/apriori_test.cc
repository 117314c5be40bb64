// Tests for the classic a-priori baseline: hand-worked examples, the
// naive/apriori agreement, the a-priori==flock equivalence on generated
// data, and level statistics.
#include <gtest/gtest.h>

#include "apriori/apriori.h"
#include "flocks/eval.h"
#include "flocks/flock.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

BasketData MakeData(std::vector<std::vector<std::string>> baskets) {
  Relation rel("baskets", Schema({"BID", "Item"}));
  for (std::size_t b = 0; b < baskets.size(); ++b) {
    for (const std::string& item : baskets[b]) {
      rel.AddRow({Value(static_cast<std::int64_t>(b)), Value(item)});
    }
  }
  rel.Dedup();
  auto data = BasketsFromRelation(rel, "BID", "Item");
  EXPECT_TRUE(data.ok());
  return *data;
}

TEST(BasketDataTest, ItemIdsFollowNameOrder) {
  BasketData data = MakeData({{"wine", "beer"}, {"apple"}});
  ASSERT_EQ(data.item_names.size(), 3u);
  EXPECT_EQ(data.item_names[0], "apple");
  EXPECT_EQ(data.item_names[1], "beer");
  EXPECT_EQ(data.item_names[2], "wine");
}

TEST(BasketDataTest, BasketsSortedAndDeduped) {
  BasketData data = MakeData({{"b", "a", "b"}});
  ASSERT_EQ(data.baskets.size(), 1u);
  EXPECT_EQ(data.baskets[0], (std::vector<ItemId>{0, 1}));
}

TEST(BasketDataTest, MissingColumnFails) {
  Relation rel("r", Schema({"X", "Y"}));
  EXPECT_FALSE(BasketsFromRelation(rel, "BID", "Item").ok());
}

TEST(AprioriTest, HandWorkedPairs) {
  // beer+diapers together 3x, beer+wine 1x, solo wine 1x.
  BasketData data = MakeData({{"beer", "diapers"},
                              {"beer", "diapers"},
                              {"beer", "diapers"},
                              {"beer", "wine"},
                              {"wine"}});
  std::vector<Itemset> pairs = AprioriFrequentPairs(data, 3);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(data.item_names[pairs[0].items[0]], "beer");
  EXPECT_EQ(data.item_names[pairs[0].items[1]], "diapers");
  EXPECT_EQ(pairs[0].support, 3u);
}

TEST(AprioriTest, NaiveAndAprioriPairsAgree) {
  BasketConfig config{.n_baskets = 400, .n_items = 60, .avg_basket_size = 6,
                      .zipf_theta = 1.0, .seed = 31};
  auto data = BasketsFromRelation(GenerateBaskets(config), "BID", "Item");
  ASSERT_TRUE(data.ok());
  for (std::size_t support : {2u, 5u, 10u, 25u}) {
    std::vector<Itemset> naive = NaiveFrequentPairs(*data, support);
    std::vector<Itemset> smart = AprioriFrequentPairs(*data, support);
    ASSERT_EQ(naive.size(), smart.size()) << "support " << support;
    for (std::size_t i = 0; i < naive.size(); ++i) {
      EXPECT_EQ(naive[i].items, smart[i].items);
      EXPECT_EQ(naive[i].support, smart[i].support);
    }
  }
}

TEST(AprioriTest, LevelwiseFindsTriples) {
  // {a,b,c} together 3x; {a,b} additionally once more.
  BasketData data = MakeData({{"a", "b", "c"},
                              {"a", "b", "c"},
                              {"a", "b", "c"},
                              {"a", "b"},
                              {"d"}});
  std::vector<Itemset> all =
      AprioriFrequentItemsets(data, {.min_support = 3, .max_size = 0});
  // Frequent: a(4) b(4) c(3) ab(4) ac(3) bc(3) abc(3).
  EXPECT_EQ(all.size(), 7u);
  bool found_triple = false;
  for (const Itemset& s : all) {
    if (s.items.size() == 3) {
      found_triple = true;
      EXPECT_EQ(s.support, 3u);
    }
  }
  EXPECT_TRUE(found_triple);
}

TEST(AprioriTest, MaxSizeStopsEarly) {
  BasketData data = MakeData({{"a", "b", "c"}, {"a", "b", "c"}});
  std::vector<Itemset> capped =
      AprioriFrequentItemsets(data, {.min_support = 2, .max_size = 2});
  for (const Itemset& s : capped) EXPECT_LE(s.items.size(), 2u);
}

TEST(AprioriTest, SupportMonotoneAcrossLevels) {
  BasketConfig config{.n_baskets = 200, .n_items = 30, .avg_basket_size = 6,
                      .zipf_theta = 1.0, .seed = 32};
  auto data = BasketsFromRelation(GenerateBaskets(config), "BID", "Item");
  ASSERT_TRUE(data.ok());
  std::vector<Itemset> all =
      AprioriFrequentItemsets(*data, {.min_support = 5});
  // Every itemset's support must be <= the support of each of its items.
  std::map<ItemId, std::size_t> singleton_support;
  for (const Itemset& s : all) {
    if (s.items.size() == 1) singleton_support[s.items[0]] = s.support;
  }
  for (const Itemset& s : all) {
    for (ItemId item : s.items) {
      EXPECT_LE(s.support, singleton_support[item]);
    }
  }
}

TEST(AprioriTest, StatsShowPruning) {
  BasketConfig config{.n_baskets = 300, .n_items = 100, .avg_basket_size = 6,
                      .zipf_theta = 1.2, .seed = 33};
  auto data = BasketsFromRelation(GenerateBaskets(config), "BID", "Item");
  ASSERT_TRUE(data.ok());
  AprioriStats stats;
  AprioriFrequentItemsets(*data, {.min_support = 20}, {}, &stats);
  ASSERT_GE(stats.candidates_per_level.size(), 2u);
  std::size_t frequent_items = stats.frequent_per_level[0];
  // Level-2 candidates come only from frequent items: at most C(f,2),
  // far fewer than C(n_items, 2).
  EXPECT_LE(stats.candidates_per_level[1],
            frequent_items * (frequent_items - 1) / 2);
}

TEST(AprioriTest, MatchesFlockEvaluation) {
  // The market-basket flock (Fig. 2 + lexicographic order) and a-priori
  // must produce the same frequent pairs.
  BasketConfig config{.n_baskets = 250, .n_items = 40, .avg_basket_size = 5,
                      .zipf_theta = 1.0, .seed = 34};
  Relation baskets = GenerateBaskets(config);
  Database db;
  db.PutRelation(baskets);
  auto flock =
      MakeFlock("answer(B) :- baskets(B,$1) AND baskets(B,$2) AND $1 < $2",
                FilterCondition::MinSupport(6));
  ASSERT_TRUE(flock.ok());
  auto flock_result = EvaluateFlock(*flock, db);
  ASSERT_TRUE(flock_result.ok());

  auto data = BasketsFromRelation(baskets, "BID", "Item");
  ASSERT_TRUE(data.ok());
  std::vector<Itemset> pairs = AprioriFrequentPairs(*data, 6);

  ASSERT_EQ(flock_result->size(), pairs.size());
  for (const Itemset& p : pairs) {
    EXPECT_TRUE(flock_result->Contains(
        {Value(data->item_names[p.items[0]]),
         Value(data->item_names[p.items[1]])}))
        << data->item_names[p.items[0]] << ","
        << data->item_names[p.items[1]];
  }
}

TEST(AprioriTest, ItemsetsToRelationShapesOutput) {
  BasketData data = MakeData({{"a", "b"}, {"a", "b"}});
  std::vector<Itemset> pairs = AprioriFrequentPairs(data, 2);
  Relation rel = ItemsetsToRelation(pairs, data, 2, "pairs");
  EXPECT_EQ(rel.schema(), Schema({"I1", "I2", "Support"}));
  ASSERT_EQ(rel.size(), 1u);
  EXPECT_TRUE(rel.Contains(
      {Value("a"), Value("b"), Value(std::int64_t{2})}));
}

TEST(AprioriTest, EmptyDataYieldsNothing) {
  BasketData data;
  EXPECT_TRUE(AprioriFrequentItemsets(data, {.min_support = 1}).empty());
  EXPECT_TRUE(NaiveFrequentPairs(data, 1).empty());
}

}  // namespace
}  // namespace qf
