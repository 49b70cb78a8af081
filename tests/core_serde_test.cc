// Wire-format round trips for the sketch stack.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/nips_ci_ensemble.h"
#include "util/envelope.h"
#include "util/random.h"

namespace implistat {
namespace {

ImplicationConditions SampleConditions() {
  ImplicationConditions cond;
  cond.max_multiplicity = 3;
  cond.min_support = 7;
  cond.min_top_confidence = 0.85;
  cond.confidence_c = 2;
  cond.strict_multiplicity = false;
  return cond;
}

TEST(ConditionsSerdeTest, RoundTrip) {
  ByteWriter w;
  SampleConditions().SerializeTo(&w);
  ByteReader r(w.str());
  auto decoded = ImplicationConditions::Deserialize(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded == SampleConditions());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ConditionsSerdeTest, InvalidConditionsRejected) {
  ImplicationConditions bad = SampleConditions();
  bad.max_multiplicity = 0;
  ByteWriter w;
  bad.SerializeTo(&w);
  ByteReader r(w.str());
  EXPECT_FALSE(ImplicationConditions::Deserialize(&r).ok());
}

TEST(ItemsetStateSerdeTest, RoundTripPreservesBehaviour) {
  auto cond = SampleConditions();
  ItemsetState state;
  for (int i = 0; i < 5; ++i) state.Observe(10, cond);
  for (int i = 0; i < 2; ++i) state.Observe(11, cond);
  ByteWriter w;
  state.SerializeTo(&w);
  ByteReader r(w.str());
  auto decoded = ItemsetState::Deserialize(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->support(), state.support());
  EXPECT_EQ(decoded->multiplicity(), state.multiplicity());
  EXPECT_EQ(decoded->dirty(), state.dirty());
  EXPECT_DOUBLE_EQ(decoded->TopConfidence(2), state.TopConfidence(2));
  // The decoded state keeps evolving identically.
  ItemsetState reference = state;
  decoded->Observe(12, cond);
  reference.Observe(12, cond);
  EXPECT_EQ(decoded->dirty(), reference.dirty());
  EXPECT_EQ(decoded->support(), reference.support());
}

TEST(FringeCellSerdeTest, RoundTrip) {
  auto cond = SampleConditions();
  FringeCell cell;
  for (ItemsetKey a = 0; a < 10; ++a) {
    cell.Observe(a, 100 + a % 3, cond);
    cell.Observe(a, 100 + a % 3, cond);
  }
  ByteWriter w;
  cell.SerializeTo(&w);
  ByteReader r(w.str());
  auto decoded = FringeCell::Deserialize(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->num_itemsets(), cell.num_itemsets());
  EXPECT_EQ(decoded->has_supported(), cell.has_supported());
}

TEST(NipsSerdeTest, SingleBitmapRoundTripUnderBudgetForcing) {
  ImplicationConditions cond = SampleConditions();
  NipsOptions opts;
  opts.fringe_size = 2;       // budget 2·3 = 6 itemsets
  opts.capacity_factor = 2;
  opts.bitmap_bits = 32;
  Nips nips(cond, opts);
  // Overload so the forced Zone-1 prefix is non-trivial.
  for (int i = 0; i < 200; ++i) {
    nips.ObserveAt(i % 10, 1000 + i, i % 3);
  }
  ByteWriter w;
  nips.SerializeTo(&w);
  ByteReader r(w.str());
  auto decoded = Nips::Deserialize(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(decoded->RNonImplication(), nips.RNonImplication());
  EXPECT_EQ(decoded->RSupport(), nips.RSupport());
  EXPECT_EQ(decoded->fringe_left(), nips.fringe_left());
  EXPECT_EQ(decoded->fringe_right(), nips.fringe_right());
  EXPECT_EQ(decoded->TrackedItemsets(), nips.TrackedItemsets());
  // The decoded bitmap keeps enforcing the budget as it evolves.
  for (int i = 0; i < 50; ++i) decoded->ObserveAt(20, 5000 + i, 1);
  EXPECT_LE(decoded->TrackedItemsets(), decoded->ItemBudget());
}

TEST(NipsSerdeTest, EmptyBitmapRoundTrip) {
  Nips nips(SampleConditions(), NipsOptions{});
  ByteWriter w;
  nips.SerializeTo(&w);
  ByteReader r(w.str());
  auto decoded = Nips::Deserialize(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->fringe_right(), -1);
  EXPECT_EQ(decoded->RNonImplication(), 0);
}

NipsCi BuildLoadedEnsemble(uint64_t seed) {
  NipsCiOptions opts;
  opts.seed = seed;
  NipsCi nips(SampleConditions(), opts);
  Rng rng(seed + 1);
  for (ItemsetKey a = 0; a < 5000; ++a) {
    for (int i = 0; i < 8; ++i) {
      nips.Observe(a, a % 4 == 0 ? rng.Uniform(50) : 1);
    }
  }
  return nips;
}

TEST(NipsCiSerdeTest, RoundTripPreservesEstimates) {
  NipsCi original = BuildLoadedEnsemble(7);
  std::string bytes = original.Serialize();
  auto decoded = NipsCi::Deserialize(bytes);
  ASSERT_TRUE(decoded.ok());
  EXPECT_DOUBLE_EQ(decoded->EstimateImplicationCount(),
                   original.EstimateImplicationCount());
  EXPECT_DOUBLE_EQ(decoded->EstimateNonImplicationCount(),
                   original.EstimateNonImplicationCount());
  EXPECT_DOUBLE_EQ(decoded->EstimateSupportedDistinct(),
                   original.EstimateSupportedDistinct());
  EXPECT_EQ(decoded->TrackedItemsets(), original.TrackedItemsets());
}

TEST(NipsCiSerdeTest, DecodedEnsembleKeepsStreaming) {
  NipsCi original = BuildLoadedEnsemble(9);
  auto decoded = NipsCi::Deserialize(original.Serialize());
  ASSERT_TRUE(decoded.ok());
  for (ItemsetKey a = 100000; a < 101000; ++a) {
    original.Observe(a, 1);
    original.Observe(a, 1);
    decoded->Observe(a, 1);
    decoded->Observe(a, 1);
  }
  // Same hash seed → identical evolution.
  EXPECT_DOUBLE_EQ(decoded->EstimateImplicationCount(),
                   original.EstimateImplicationCount());
}

TEST(NipsCiSerdeTest, DecodedEnsembleIsMergeable) {
  NipsCi a = BuildLoadedEnsemble(11);
  NipsCi b(SampleConditions(), [] {
    NipsCiOptions opts;
    opts.seed = 11;
    return opts;
  }());
  for (ItemsetKey key = 500000; key < 502000; ++key) {
    for (int i = 0; i < 8; ++i) b.Observe(key, 2);
  }
  auto shipped = NipsCi::Deserialize(b.Serialize());
  ASSERT_TRUE(shipped.ok());
  double before = a.EstimateImplicationCount();
  ASSERT_TRUE(a.Merge(*shipped).ok());
  EXPECT_GT(a.EstimateImplicationCount(), before);
}

TEST(NipsCiSerdeTest, WireSizeIsCompact) {
  // The whole router summary — the thing the paper wants to ship instead
  // of per-flow state — fits in tens of kilobytes.
  NipsCi nips = BuildLoadedEnsemble(13);
  EXPECT_LT(nips.Serialize().size(), 200u << 10);
}

TEST(NipsCiSerdeTest, MalformedInputsRejected) {
  NipsCi nips = BuildLoadedEnsemble(15);
  std::string bytes = nips.Serialize();
  // Truncations at every prefix must fail cleanly, never crash.
  for (size_t len : {size_t{0}, size_t{1}, size_t{5}, bytes.size() / 2,
                     bytes.size() - 1}) {
    EXPECT_FALSE(NipsCi::Deserialize(std::string_view(bytes).substr(0, len))
                     .ok())
        << "prefix length " << len;
  }
  // Trailing garbage rejected.
  EXPECT_FALSE(NipsCi::Deserialize(bytes + "x").ok());
  // Bad version byte rejected.
  std::string bad = bytes;
  bad[0] = 99;
  EXPECT_FALSE(NipsCi::Deserialize(bad).ok());
}

// A cell written with the given keys in the given order, each tracking
// one (a, b) pair.
std::string CellWithKeys(const std::vector<ItemsetKey>& keys) {
  ImplicationConditions cond = SampleConditions();
  ByteWriter w;
  w.PutBool(false);
  w.PutVarint64(keys.size());
  for (ItemsetKey key : keys) {
    ItemsetState state;
    state.Observe(key + 1, cond);
    w.PutU64(key);
    state.SerializeTo(&w);
  }
  return w.Release();
}

TEST(FringeCellSerdeTest, KeysMustBeStrictlyAscending) {
  for (const auto& keys : std::vector<std::vector<ItemsetKey>>{
           {5, 9, 12}, {9, 5, 12}, {5, 12, 9}, {5, 5, 12}, {5, 9, 9}}) {
    const std::string bytes = CellWithKeys(keys);
    ByteReader r(bytes);
    StatusOr<FringeCell> cell = FringeCell::Deserialize(&r);
    if (std::is_sorted(keys.begin(), keys.end()) &&
        std::adjacent_find(keys.begin(), keys.end()) == keys.end()) {
      ASSERT_TRUE(cell.ok()) << cell.status().ToString();
      EXPECT_EQ(cell->num_itemsets(), keys.size());
    } else {
      ASSERT_FALSE(cell.ok()) << keys[0] << "," << keys[1] << "," << keys[2];
      EXPECT_EQ(cell.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NipsCiSerdeTest, RestoreRefusesUnorderedCellKeysWithoutMutating) {
  // One bitmap, unbounded fringe, σ out of reach: each of 64 itemsets is
  // tracked with one pair, so every cell entry has the same length and
  // two keys one entry apart sit in the same cell.
  ImplicationConditions cond = SampleConditions();
  cond.min_support = 1000;
  NipsCiOptions opts;
  opts.num_bitmaps = 1;
  opts.nips.fringe_size = 0;
  NipsCi source(cond, opts);
  Rng rng(29);
  std::vector<ItemsetKey> keys(64);
  for (ItemsetKey& key : keys) {
    key = rng.Next64();
    source.Observe(key, 7);
  }
  ItemsetState one_pair;
  one_pair.Observe(7, cond);
  ByteWriter state_bytes;
  one_pair.SerializeTo(&state_bytes);
  const size_t entry_bytes = sizeof(ItemsetKey) + state_bytes.str().size();

  const std::string payload = source.Serialize();
  std::vector<size_t> at;
  for (ItemsetKey key : keys) {
    char raw[sizeof(key)];
    std::memcpy(raw, &key, sizeof(key));
    const size_t pos = payload.find(std::string(raw, sizeof(raw)));
    ASSERT_NE(pos, std::string::npos);
    at.push_back(pos);
  }
  std::sort(at.begin(), at.end());
  size_t first = std::string::npos;
  for (size_t i = 0; i + 1 < at.size(); ++i) {
    if (at[i + 1] - at[i] == entry_bytes) {
      first = at[i];
      break;
    }
  }
  ASSERT_NE(first, std::string::npos) << "no cell holds two itemsets";
  const size_t second = first + entry_bytes;

  std::string swapped = payload;
  std::swap_ranges(swapped.begin() + first,
                   swapped.begin() + first + sizeof(ItemsetKey),
                   swapped.begin() + second);
  std::string duplicated = payload;
  duplicated.replace(second, sizeof(ItemsetKey),
                     payload.substr(first, sizeof(ItemsetKey)));

  NipsCi target(cond, opts);
  for (int i = 0; i < 100; ++i) target.Observe(rng.Uniform(40), i % 3);
  StatusOr<std::string> before = target.SerializeState();
  ASSERT_TRUE(before.ok());
  for (const std::string& bad : {swapped, duplicated}) {
    Status status =
        target.RestoreState(WrapSnapshot(SnapshotKind::kNipsCi, bad));
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    StatusOr<std::string> after = target.SerializeState();
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(*after, *before);
  }
  // The unmodified payload restores.
  EXPECT_TRUE(
      target.RestoreState(WrapSnapshot(SnapshotKind::kNipsCi, payload)).ok());
}

}  // namespace
}  // namespace implistat
