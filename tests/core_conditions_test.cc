#include "core/conditions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/random.h"

namespace implistat {
namespace {

ImplicationConditions Cond(uint32_t k, uint64_t sigma, double gamma,
                           uint32_t c, bool strict = true) {
  ImplicationConditions cond;
  cond.max_multiplicity = k;
  cond.min_support = sigma;
  cond.min_top_confidence = gamma;
  cond.confidence_c = c;
  cond.strict_multiplicity = strict;
  return cond;
}

TEST(ConditionsTest, ValidateAcceptsReasonable) {
  EXPECT_TRUE(Cond(1, 1, 1.0, 1).Validate().ok());
  EXPECT_TRUE(Cond(10, 50, 0.8, 2).Validate().ok());
}

TEST(ConditionsTest, ValidateRejectsDegenerate) {
  EXPECT_FALSE(Cond(0, 1, 1.0, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 0, 1.0, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 1, 0.0, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 1, 1.5, 1).Validate().ok());
  EXPECT_FALSE(Cond(1, 1, 1.0, 0).Validate().ok());
}

TEST(ItemsetStateTest, PureOneToOneImplies) {
  auto cond = Cond(1, 3, 1.0, 1);
  ItemsetState state;
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(state.Observe(/*b=*/7, cond));
  }
  EXPECT_TRUE(state.supported(cond));
  EXPECT_FALSE(state.dirty());
  EXPECT_EQ(state.support(), 5u);
  EXPECT_EQ(state.multiplicity(), 1u);
  EXPECT_DOUBLE_EQ(state.TopConfidence(1), 1.0);
}

TEST(ItemsetStateTest, NotSupportedIsNeverDirty) {
  auto cond = Cond(1, 100, 1.0, 1);
  ItemsetState state;
  // Wild multiplicity, but support stays below σ: not dirty.
  for (ItemsetKey b = 0; b < 50; ++b) EXPECT_FALSE(state.Observe(b, cond));
  EXPECT_FALSE(state.supported(cond));
  EXPECT_FALSE(state.dirty());
}

TEST(ItemsetStateTest, StrictMultiplicityViolationDirties) {
  auto cond = Cond(2, 1, 0.01, 1, /*strict=*/true);
  ItemsetState state;
  EXPECT_FALSE(state.Observe(1, cond));
  EXPECT_FALSE(state.Observe(2, cond));
  // Third distinct b: K = 2 exceeded while supported → dirty, despite the
  // permissive confidence threshold.
  EXPECT_TRUE(state.Observe(3, cond));
  EXPECT_TRUE(state.dirty());
  EXPECT_EQ(state.multiplicity(), 3u);  // saturated at K+1
}

TEST(ItemsetStateTest, NonStrictMultiplicityOnlyBoundsTracking) {
  auto cond = Cond(2, 1, 0.01, 2, /*strict=*/false);
  ItemsetState state;
  EXPECT_FALSE(state.Observe(1, cond));
  EXPECT_FALSE(state.Observe(2, cond));
  EXPECT_FALSE(state.Observe(3, cond));  // not dirty: K is a tracking bound
  EXPECT_FALSE(state.dirty());
}

TEST(ItemsetStateTest, ConfidenceViolationDirties) {
  // γ = 0.9 at c=1, σ=4: two b's at 50/50 → top-1 conf 0.5 < 0.9.
  auto cond = Cond(5, 4, 0.9, 1);
  ItemsetState state;
  state.Observe(1, cond);
  state.Observe(2, cond);
  state.Observe(1, cond);
  EXPECT_FALSE(state.dirty());  // support 3 < σ=4, check not armed yet
  EXPECT_TRUE(state.Observe(2, cond));
  EXPECT_TRUE(state.dirty());
}

TEST(ItemsetStateTest, DirtyIsMonotone) {
  auto cond = Cond(5, 2, 0.9, 1);
  ItemsetState state;
  state.Observe(1, cond);
  state.Observe(2, cond);  // conf 0.5 at support 2 → dirty
  ASSERT_TRUE(state.dirty());
  // A long loyal suffix cannot rehabilitate it (§3.1.1).
  for (int i = 0; i < 1000; ++i) EXPECT_TRUE(state.Observe(1, cond));
  EXPECT_TRUE(state.dirty());
}

TEST(ItemsetStateTest, TopConfidenceSumsTopC) {
  // The paper's P2P example: confidences {2/4, 1/4, 1/4};
  // γ_1 = 50%, γ_2 = 75%, γ_3 = 100%.
  auto cond = Cond(5, 100, 0.5, 3);  // high σ: never dirty here
  ItemsetState state;
  state.Observe(/*S1*/ 1, cond);
  state.Observe(1, cond);
  state.Observe(/*S2*/ 2, cond);
  state.Observe(/*S3*/ 3, cond);
  EXPECT_DOUBLE_EQ(state.TopConfidence(1), 0.5);
  EXPECT_DOUBLE_EQ(state.TopConfidence(2), 0.75);
  EXPECT_DOUBLE_EQ(state.TopConfidence(3), 1.0);
  EXPECT_DOUBLE_EQ(state.TopConfidence(10), 1.0);  // c beyond distinct b's
}

TEST(ItemsetStateTest, BoundaryConfidencePasses) {
  // conf == γ exactly must pass (the check is "< γ" with a small epsilon).
  auto cond = Cond(5, 10, 0.8, 1);
  ItemsetState state;
  for (int i = 0; i < 8; ++i) state.Observe(1, cond);
  for (int i = 0; i < 2; ++i) state.Observe(2, cond);
  // support 10, top-1 = 8/10 = 0.8 == γ.
  EXPECT_FALSE(state.dirty());
}

TEST(ItemsetStateTest, NonStrictEvictionKeepsHeavyCounters) {
  // K = 1 tracking slot; the heavy b must survive singleton interlopers.
  auto cond = Cond(1, 1000, 0.9, 1, /*strict=*/false);
  ItemsetState state;
  state.Observe(100, cond);  // heavy b enters
  state.Observe(100, cond);  // count 2: now immune to eviction
  for (ItemsetKey noise = 0; noise < 10; ++noise) {
    state.Observe(noise, cond);  // ten singleton b's
    state.Observe(100, cond);
  }
  // top-1 confidence must reflect the heavy counter: 12/22 of arrivals.
  EXPECT_NEAR(state.TopConfidence(1), 12.0 / 22.0, 1e-9);
}

TEST(ItemsetStateTest, NonStrictEvictionReplacesSingleton) {
  auto cond = Cond(1, 1000, 0.9, 1, /*strict=*/false);
  ItemsetState state;
  state.Observe(1, cond);  // slot: b=1 count 1
  state.Observe(2, cond);  // evicts the count-1 entry
  state.Observe(2, cond);
  state.Observe(2, cond);
  EXPECT_NEAR(state.TopConfidence(1), 3.0 / 4.0, 1e-9);
}

TEST(ItemsetStateTest, MemoryStaysSmallAfterDirty) {
  auto cond = Cond(3, 1, 0.99, 1);
  ItemsetState state;
  for (ItemsetKey b = 0; b < 100; ++b) state.Observe(b, cond);
  ASSERT_TRUE(state.dirty());
  EXPECT_LE(state.MemoryBytes(), sizeof(ItemsetState) + 16);
}

TEST(ItemsetStateTest, SupportCountsAllArrivalsIncludingUntracked) {
  auto cond = Cond(1, 1, 0.01, 1, /*strict=*/false);
  ItemsetState state;
  for (ItemsetKey b = 0; b < 7; ++b) state.Observe(b, cond);
  EXPECT_EQ(state.support(), 7u);
}

// --- PairList --------------------------------------------------------------

using PairModel = std::vector<std::pair<ItemsetKey, uint64_t>>;

// The list's documented layout: the first pair inline, one heap block
// from the second on, doubling when full; a copy holds exactly its pairs.
struct ModelList {
  PairModel pairs;
  size_t capacity = 1;
  size_t HeapBytes() const {
    return capacity > 1 ? capacity * sizeof(BCount) : 0;
  }
};

void ExpectMatches(const PairList& list, const ModelList& model,
                   const std::string& where) {
  ASSERT_EQ(list.size(), model.pairs.size()) << where;
  size_t i = 0;
  for (const BCount& e : list) {
    EXPECT_EQ(e.b, model.pairs[i].first) << where << " pair " << i;
    EXPECT_EQ(e.count, model.pairs[i].second) << where << " pair " << i;
    ++i;
  }
  EXPECT_EQ(list.HeapBytes(), model.HeapBytes()) << where;
}

TEST(PairListTest, FitsTheVectorItReplaces) {
  EXPECT_EQ(sizeof(PairList), sizeof(std::vector<BCount>));
  EXPECT_EQ(sizeof(ItemsetState), 40u);
}

TEST(PairListTest, MatchesAVectorModelThroughSpillCopyMoveAndRelease) {
  Rng rng(91);
  std::vector<PairList> lists(4);
  std::vector<ModelList> models(4);
  for (int step = 0; step < 20000; ++step) {
    const size_t x = rng.Uniform(lists.size());
    const size_t y = rng.Uniform(lists.size());
    const std::string where = "step " + std::to_string(step);
    PairList& list = lists[x];
    ModelList& model = models[x];
    const uint64_t op = rng.Uniform(100);
    if (op < 55) {
      const ItemsetKey b = rng.Next64();
      const uint64_t count = 1 + rng.Uniform(5);
      list.PushBack(b, count);
      if (model.pairs.size() == model.capacity) model.capacity *= 2;
      model.pairs.emplace_back(b, count);
    } else if (op < 65) {
      if (model.pairs.empty()) continue;
      const size_t i = rng.Uniform(model.pairs.size());
      list.begin()[i].count += 3;
      model.pairs[i].second += 3;
    } else if (op < 72) {
      PairList copy(lists[y]);
      ModelList copied{models[y].pairs, std::max<size_t>(
                                            1, models[y].pairs.size())};
      ExpectMatches(copy, copied, where + " copy-constructed");
      ExpectMatches(lists[y], models[y], where + " copy source");
      list = lists[y];  // copy-assign; a self-copy (x == y) is a no-op
      if (x != y) model = copied;
    } else if (op < 80) {
      if (x == y) continue;
      PairList moved(std::move(lists[y]));
      ExpectMatches(moved, models[y], where + " move-constructed");
      ExpectMatches(lists[y], ModelList{}, where + " moved-from");
      list = std::move(moved);
      model = models[y];
      models[y] = ModelList{};
    } else if (op < 88) {
      list.Release();
      model = ModelList{};
    } else if (op < 94) {
      const size_t n = rng.Uniform(6);
      list.Reserve(n);
      if (n > model.capacity) model.capacity = n;
    } else {
      list = std::move(list);  // self-move leaves the list as it was
    }
    ExpectMatches(list, model, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// An itemset's tracked pairs, in list order, read off its serialized form.
PairModel Pairs(const ItemsetState& state) {
  ByteWriter out;
  state.SerializeTo(&out);
  const std::string bytes = out.Release();
  ByteReader in(bytes);
  uint64_t support, n;
  uint32_t mult;
  bool flag;
  EXPECT_TRUE(in.ReadVarint64(&support).ok());
  EXPECT_TRUE(in.ReadU32(&mult).ok());
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(in.ReadBool(&flag).ok());
  EXPECT_TRUE(in.ReadVarint64(&n).ok());
  PairModel pairs(n);
  for (auto& [b, count] : pairs) {
    EXPECT_TRUE(in.ReadU64(&b).ok());
    EXPECT_TRUE(in.ReadVarint64(&count).ok());
  }
  return pairs;
}

TEST(PairListTest, EvictionAndOrderAcrossTheInlineBoundary) {
  auto cond = Cond(3, 1000, 0.5, 1, /*strict=*/false);
  ItemsetState state;
  state.Observe(10, cond);  // inline
  EXPECT_EQ(Pairs(state), (PairModel{{10, 1}}));
  EXPECT_EQ(state.MemoryBytes(), sizeof(ItemsetState));
  state.Observe(20, cond);  // spills: one heap block of two pairs
  state.Observe(20, cond);
  EXPECT_EQ(Pairs(state), (PairModel{{10, 1}, {20, 2}}));
  EXPECT_EQ(state.MemoryBytes(), sizeof(ItemsetState) + 2 * sizeof(BCount));
  state.Observe(30, cond);  // grows to four
  EXPECT_EQ(Pairs(state), (PairModel{{10, 1}, {20, 2}, {30, 1}}));
  EXPECT_EQ(state.MemoryBytes(), sizeof(ItemsetState) + 4 * sizeof(BCount));
  // A fourth b evicts the first pair still at 1 — the one that began
  // inline — in place.
  state.Observe(40, cond);
  EXPECT_EQ(Pairs(state), (PairModel{{40, 1}, {20, 2}, {30, 1}}));
  state.Observe(40, cond);
  state.Observe(50, cond);
  EXPECT_EQ(Pairs(state), (PairModel{{40, 2}, {20, 2}, {50, 1}}));

  // A restored state holds exactly its pairs; one pair stays inline.
  ByteWriter out;
  state.SerializeTo(&out);
  const std::string bytes = out.Release();
  ByteReader in(bytes);
  StatusOr<ItemsetState> restored = ItemsetState::Deserialize(&in);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(Pairs(*restored), Pairs(state));
  EXPECT_EQ(restored->MemoryBytes(),
            sizeof(ItemsetState) + 3 * sizeof(BCount));
  ItemsetState single;
  single.Observe(7, cond);
  ItemsetState single_copy = single;
  EXPECT_EQ(single_copy.MemoryBytes(), sizeof(ItemsetState));
  EXPECT_EQ(Pairs(single_copy), (PairModel{{7, 1}}));

  // Turning dirty releases the heap block.
  auto strict = Cond(2, 1, 0.99, 1);
  ItemsetState dirty;
  dirty.Observe(1, strict);
  dirty.Observe(2, strict);
  EXPECT_TRUE(dirty.dirty());
  EXPECT_EQ(dirty.MemoryBytes(), sizeof(ItemsetState));
  EXPECT_TRUE(Pairs(dirty).empty());
}

// The top-c sum as the retired implementation computed it: copy the
// counts, partially sort them, sum the first c.
double ReferenceTopConfidence(const PairModel& pairs, uint64_t support,
                              uint32_t c) {
  if (support == 0 || pairs.empty()) return 0.0;
  std::vector<uint64_t> counts;
  for (const auto& [b, n] : pairs) counts.push_back(n);
  const size_t take = std::min<size_t>(c, counts.size());
  std::partial_sort(counts.begin(), counts.begin() + take, counts.end(),
                    std::greater<uint64_t>());
  uint64_t sum = 0;
  for (size_t i = 0; i < take; ++i) sum += counts[i];
  return static_cast<double>(sum) / static_cast<double>(support);
}

TEST(ItemsetStateTest, TopConfidenceMatchesACopyAndPartialSort) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    // Unlimited tracking grows lists past the stack bound; bounded
    // tracking keeps them at K.
    const bool unlimited = trial % 2 == 0;
    const uint32_t k = 1 + static_cast<uint32_t>(rng.Uniform(16));
    auto cond = Cond(k, uint64_t{1} << 40, 0.5, 1, /*strict=*/false);
    ItemsetState state(unlimited);
    const uint64_t distinct = 1 + rng.Uniform(unlimited ? 200 : 24);
    const int arrivals = 1 + static_cast<int>(rng.Uniform(600));
    for (int i = 0; i < arrivals; ++i) {
      // Skewed b's, so the counts differ and ties occur.
      const uint64_t r = rng.Uniform(distinct);
      state.Observe(rng.Uniform(3) == 0 ? r : r % 4, cond);
    }
    const PairModel pairs = Pairs(state);
    const size_t n = pairs.size();
    ASSERT_GT(n, 0u);
    for (size_t c : {size_t{1}, n / 2, n - 1, n, n + 1, n + 40}) {
      if (c == 0) continue;
      const uint32_t c32 = static_cast<uint32_t>(c);
      EXPECT_EQ(state.TopConfidence(c32),
                ReferenceTopConfidence(pairs, state.support(), c32))
          << "trial " << trial << " pairs " << n << " c " << c;
    }
  }
  // Some trials must cross the stack bound for this to test the heap path.
  ItemsetState wide(/*unlimited_tracking=*/true);
  auto cond = Cond(1, uint64_t{1} << 40, 0.5, 1, /*strict=*/false);
  for (uint64_t b = 0; b < 3 * ItemsetState::kTopConfidenceStackPairs; ++b) {
    for (uint64_t i = 0; i <= b % 7; ++i) wide.Observe(b, cond);
  }
  const PairModel pairs = Pairs(wide);
  ASSERT_GT(pairs.size(), ItemsetState::kTopConfidenceStackPairs);
  for (uint32_t c : {1u, 10u, 100u, 191u, 192u, 500u}) {
    EXPECT_EQ(wide.TopConfidence(c),
              ReferenceTopConfidence(pairs, wide.support(), c))
        << "c " << c;
  }
}

}  // namespace
}  // namespace implistat
