// Tests for maximal frequent itemsets via the flock sequence (§2.2
// footnote), validated against a brute-force derivation from the a-priori
// miner's complete levelwise output.
#include <gtest/gtest.h>

#include <set>

#include "apriori/apriori.h"
#include "mining/maximal.h"
#include "workload/basket_gen.h"

namespace qf {
namespace {

Database HandDb() {
  // abc x3, ab x1, d x2: maximal at support 2 are {a,b,c} and {d}.
  Database db;
  Relation r("baskets", Schema({"BID", "Item"}));
  int bid = 0;
  for (int i = 0; i < 3; ++i) {
    r.AddRow({Value(bid), Value("a")});
    r.AddRow({Value(bid), Value("b")});
    r.AddRow({Value(bid), Value("c")});
    ++bid;
  }
  r.AddRow({Value(bid), Value("a")});
  r.AddRow({Value(bid), Value("b")});
  ++bid;
  for (int i = 0; i < 2; ++i) {
    r.AddRow({Value(bid++), Value("d")});
  }
  db.PutRelation(std::move(r));
  return db;
}

TEST(MaximalTest, HandWorkedExample) {
  Database db = HandDb();
  auto result = MaximalFrequentItemsets(db, DatabaseStats::Compute(db),
                                        "baskets", {.min_support = 2});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Frequent: a(4) b(4) c(3) d(2); ab(4) ac(3) bc(3); abc(3).
  EXPECT_EQ(result->frequent_per_level[0], 4u);
  EXPECT_EQ(result->frequent_per_level[1], 3u);
  EXPECT_EQ(result->frequent_per_level[2], 1u);
  // Maximal: {d} and {a,b,c}.
  ASSERT_EQ(result->maximal.size(), 2u);
  EXPECT_EQ(result->maximal[0], (Tuple{Value("d")}));
  EXPECT_EQ(result->maximal[1],
            (Tuple{Value("a"), Value("b"), Value("c")}));
}

TEST(MaximalTest, MaxSizeCapStopsSequence) {
  Database db = HandDb();
  auto result = MaximalFrequentItemsets(db, DatabaseStats::Compute(db),
                                        "baskets",
                                        {.min_support = 2, .max_size = 2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->levels, 2u);
  // With triples never mined, the pairs all stay "maximal".
  std::size_t pairs = 0;
  for (const Tuple& t : result->maximal) pairs += t.size() == 2;
  EXPECT_EQ(pairs, 3u);
}

TEST(MaximalTest, ErrorsOnMissingOrBadRelation) {
  Database db;
  EXPECT_EQ(MaximalFrequentItemsets(db, DatabaseStats::Compute(db), "nope",
                                    {.min_support = 1})
                .status()
                .code(),
            StatusCode::kNotFound);
  db.PutRelation(Relation("tri", Schema({"A", "B", "C"})));
  EXPECT_FALSE(MaximalFrequentItemsets(db, DatabaseStats::Compute(db), "tri",
                                       {.min_support = 1})
                   .ok());
}

// Property: the flock-sequence result equals the brute-force maximal sets
// derived from the complete a-priori output.
class MaximalProperty : public ::testing::TestWithParam<int> {};

TEST_P(MaximalProperty, MatchesBruteForce) {
  BasketConfig config;
  config.n_baskets = 150;
  config.n_items = 25;
  config.avg_basket_size = 5;
  config.zipf_theta = 0.7;
  config.topic_locality = 0.5;
  config.n_topics = 5;
  config.seed = static_cast<std::uint64_t>(GetParam());
  Database db;
  db.PutRelation(GenerateBaskets(config));

  const std::size_t support = 5;
  auto result = MaximalFrequentItemsets(db, DatabaseStats::Compute(db),
                                        "baskets",
                                        {.min_support = double(support)});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Brute force from the miner.
  auto data = BasketsFromRelation(db.Get("baskets"), "BID", "Item");
  ASSERT_TRUE(data.ok());
  std::vector<Itemset> frequent =
      AprioriFrequentItemsets(*data, {.min_support = support});
  std::set<std::vector<ItemId>> frequent_sets;
  for (const Itemset& s : frequent) frequent_sets.insert(s.items);
  std::set<Tuple> expected;
  for (const Itemset& s : frequent) {
    // Maximal iff no frequent superset exists; check one-item extensions.
    bool maximal = true;
    for (ItemId extra = 0;
         extra < data->item_count() && maximal; ++extra) {
      std::vector<ItemId> super = s.items;
      if (std::find(super.begin(), super.end(), extra) != super.end()) {
        continue;
      }
      super.push_back(extra);
      std::sort(super.begin(), super.end());
      if (frequent_sets.contains(super)) maximal = false;
    }
    if (maximal) {
      Tuple t;
      for (ItemId item : s.items) t.push_back(Value(data->item_names[item]));
      expected.insert(std::move(t));
    }
  }

  std::set<Tuple> actual(result->maximal.begin(), result->maximal.end());
  EXPECT_EQ(actual, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MaximalProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace qf
