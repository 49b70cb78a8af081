#include "datagen/dataset_one.h"

#include <gtest/gtest.h>

#include "baseline/exact_counter.h"
#include "stream/itemset.h"

namespace implistat {
namespace {

// Replays a generated dataset through the exact counter and returns the
// measured truth.
struct Measured {
  uint64_t implications;
  uint64_t non_implications;
  uint64_t supported;
};

Measured MeasureExact(DatasetOne& data) {
  ExactImplicationCounter exact(data.conditions);
  ItemsetPacker a_packer(data.schema, AttributeSet({0}));
  ItemsetPacker b_packer(data.schema, AttributeSet({1}));
  EXPECT_TRUE(data.stream.Reset().ok());
  while (auto tuple = data.stream.Next()) {
    exact.Observe(a_packer.Pack(*tuple), b_packer.Pack(*tuple));
  }
  return Measured{exact.ImplicationCount(), exact.NonImplicationCount(),
                  exact.SupportedDistinct()};
}

struct GenCase {
  uint64_t cardinality;
  uint64_t implied;
  uint32_t c;
  uint64_t seed;
};

class DatasetOneTruthTest : public ::testing::TestWithParam<GenCase> {};

// The central generator property: the imposed counts are exactly what the
// exact counter measures under the dataset's own conditions. (§6.1 builds
// datasets "of known count" — this is what makes Figures 4-6 measurable.)
TEST_P(DatasetOneTruthTest, ImposedCountsAreExact) {
  const GenCase& gc = GetParam();
  DatasetOneParams params;
  params.cardinality_a = gc.cardinality;
  params.implied_count = gc.implied;
  params.c = gc.c;
  params.seed = gc.seed;
  DatasetOne data = GenerateDatasetOne(params);
  Measured m = MeasureExact(data);
  EXPECT_EQ(m.implications, data.true_implication_count);
  EXPECT_EQ(m.non_implications, data.true_non_implication_count);
  EXPECT_EQ(m.supported, data.true_supported_distinct);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DatasetOneTruthTest,
    ::testing::Values(GenCase{100, 10, 1, 1}, GenCase{100, 90, 1, 2},
                      GenCase{100, 50, 2, 3}, GenCase{100, 50, 4, 4},
                      GenCase{1000, 500, 1, 5}, GenCase{1000, 100, 2, 6},
                      GenCase{1000, 900, 4, 7}, GenCase{500, 250, 3, 8}));

TEST(DatasetOneTest, BookkeepingMatchesDefinition) {
  DatasetOneParams params;
  params.cardinality_a = 100;
  params.implied_count = 40;
  params.c = 2;
  DatasetOne data = GenerateDatasetOne(params);
  EXPECT_EQ(data.true_implication_count, 40u);
  EXPECT_EQ(data.true_non_implication_count, 40u);  // 2·(60/3)
  EXPECT_EQ(data.true_supported_distinct, 80u);
  EXPECT_EQ(data.schema.attribute(0).cardinality, 100u);
  EXPECT_EQ(data.conditions.min_support, 50u);
  EXPECT_EQ(data.conditions.max_multiplicity, 2u);
  EXPECT_FALSE(data.conditions.strict_multiplicity);
}

TEST(DatasetOneTest, AllItemsetsOfAAppear) {
  DatasetOneParams params;
  params.cardinality_a = 90;
  params.implied_count = 30;
  params.c = 1;
  DatasetOne data = GenerateDatasetOne(params);
  std::vector<bool> seen(90, false);
  while (auto tuple = data.stream.Next()) seen[(*tuple)[0]] = true;
  for (int a = 0; a < 90; ++a) EXPECT_TRUE(seen[a]) << a;
}

TEST(DatasetOneTest, DeterministicPerSeed) {
  DatasetOneParams params;
  params.cardinality_a = 50;
  params.implied_count = 20;
  params.seed = 77;
  DatasetOne d1 = GenerateDatasetOne(params);
  DatasetOne d2 = GenerateDatasetOne(params);
  EXPECT_EQ(d1.stream.num_tuples(), d2.stream.num_tuples());
  auto t1 = d1.stream.Next();
  auto t2 = d2.stream.Next();
  ASSERT_TRUE(t1 && t2);
  EXPECT_EQ((*t1)[0], (*t2)[0]);
  EXPECT_EQ((*t1)[1], (*t2)[1]);
}

// |A| = 0 is a valid, empty dataset: no tuples and zero truths (the
// shuffle must not underflow on zero rows).
TEST(DatasetOneTest, EmptyDatasetHasNoTuples) {
  DatasetOneParams params;
  params.cardinality_a = 0;
  params.implied_count = 0;
  DatasetOne data = GenerateDatasetOne(params);
  EXPECT_EQ(data.stream.num_tuples(), 0u);
  EXPECT_FALSE(data.stream.Next().has_value());
  EXPECT_EQ(data.true_implication_count, 0u);
  EXPECT_EQ(data.true_non_implication_count, 0u);
  EXPECT_EQ(data.true_supported_distinct, 0u);
}

TEST(DatasetOneTest, StreamSizeMatchesRecipe) {
  // For c = 1 every qualifying itemset contributes 54 tuples, kind-1
  // 50·u + 64, kind-2 exactly 50, kind-3 exactly 40.
  DatasetOneParams params;
  params.cardinality_a = 30;
  params.implied_count = 30;  // qualifying only
  params.c = 1;
  DatasetOne data = GenerateDatasetOne(params);
  EXPECT_EQ(data.stream.num_tuples(), 30u * 54u);
}

}  // namespace
}  // namespace implistat
