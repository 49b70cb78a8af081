#include "core/nips_ci_ensemble.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "baseline/exact_counter.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat {
namespace {

ImplicationConditions OneToOne(uint64_t sigma) {
  ImplicationConditions cond;
  cond.max_multiplicity = 1;
  cond.min_support = sigma;
  cond.min_top_confidence = 1.0;
  cond.confidence_c = 1;
  return cond;
}

NipsCiOptions PaperOptions(uint64_t seed = 0) {
  NipsCiOptions opts;
  opts.num_bitmaps = 64;
  opts.nips.fringe_size = 4;
  opts.nips.capacity_factor = 2;
  opts.seed = seed;
  return opts;
}

// Feeds `implications` loyal itemsets and `violations` two-faced itemsets,
// each with enough support, in an interleaved order.
void FeedWorkload(ImplicationEstimator& est, uint64_t implications,
                  uint64_t violations, uint64_t support, uint64_t seed) {
  std::vector<std::pair<ItemsetKey, ItemsetKey>> tuples;
  for (uint64_t a = 0; a < implications; ++a) {
    for (uint64_t s = 0; s < support; ++s) tuples.emplace_back(a, a + 1);
  }
  for (uint64_t a = 0; a < violations; ++a) {
    ItemsetKey key = (uint64_t{1} << 40) + a;
    for (uint64_t s = 0; s < support; ++s) {
      tuples.emplace_back(key, s % 2 == 0 ? 1 : 2);  // two partners
    }
  }
  Rng rng(seed);
  for (size_t i = tuples.size() - 1; i > 0; --i) {
    size_t j = rng.Uniform(i + 1);
    std::swap(tuples[i], tuples[j]);
  }
  for (const auto& [a, b] : tuples) est.Observe(a, b);
}

TEST(NipsCiTest, TracksItemsetBudget) {
  // Table 5 / §6: 64 bitmaps, fringe 4, capacity factor 2 → at most
  // 64·2·(2^4−1) = 1920 tracked itemsets.
  NipsCi nips(OneToOne(5), PaperOptions());
  FeedWorkload(nips, 20000, 20000, 6, 1);
  EXPECT_LE(nips.TrackedItemsets(), 1920u);
  EXPECT_EQ(nips.num_bitmaps(), 64);
}

TEST(NipsCiTest, EstimatesImplicationCountWithin25Percent) {
  constexpr uint64_t kTruth = 8000;
  NipsCi nips(OneToOne(5), PaperOptions(7));
  FeedWorkload(nips, kTruth, 4000, 6, 2);
  double est = nips.EstimateImplicationCount();
  EXPECT_NEAR(est, kTruth, kTruth * 0.25) << "estimate=" << est;
}

TEST(NipsCiTest, EstimatesNonImplicationCount) {
  NipsCi nips(OneToOne(5), PaperOptions(8));
  FeedWorkload(nips, 4000, 8000, 6, 3);
  EXPECT_NEAR(nips.EstimateNonImplicationCount(), 8000, 8000 * 0.25);
}

TEST(NipsCiTest, EstimatesSupportedDistinct) {
  NipsCi nips(OneToOne(5), PaperOptions(9));
  FeedWorkload(nips, 6000, 6000, 6, 4);
  EXPECT_NEAR(nips.EstimateSupportedDistinct(), 12000, 12000 * 0.25);
}

TEST(NipsCiTest, AgreesWithExactAcrossSeeds) {
  // Mean relative error over several independent hash seeds should be
  // well under the paper's 10% band for m = 64.
  constexpr uint64_t kTruth = 5000;
  double total_err = 0;
  constexpr int kRuns = 5;
  for (int run = 0; run < kRuns; ++run) {
    NipsCi nips(OneToOne(5), PaperOptions(100 + run));
    ExactImplicationCounter exact(OneToOne(5));
    FeedWorkload(nips, kTruth, 2500, 6, 50 + run);
    FeedWorkload(exact, kTruth, 2500, 6, 50 + run);
    ASSERT_EQ(exact.ImplicationCount(), kTruth);
    total_err += std::abs(nips.EstimateImplicationCount() - kTruth) / kTruth;
  }
  // S is 2/3 of F0_sup here, so the subtraction roughly doubles the
  // ~10% per-term band; 5 runs keep the mean inside 0.2 comfortably.
  EXPECT_LT(total_err / kRuns, 0.20);
}

TEST(NipsCiTest, MemoryIndependentOfStreamLength) {
  NipsCi nips(OneToOne(5), PaperOptions(11));
  FeedWorkload(nips, 1000, 1000, 6, 5);
  size_t mem_small = nips.MemoryBytes();
  FeedWorkload(nips, 64000, 64000, 6, 6);
  size_t mem_large = nips.MemoryBytes();
  // Fringe-bounded: within a small constant factor, not 64x.
  EXPECT_LT(mem_large, mem_small * 4);
}

TEST(NipsCiTest, EmptyStreamEstimatesZero) {
  NipsCi nips(OneToOne(5), PaperOptions(12));
  EXPECT_DOUBLE_EQ(nips.EstimateImplicationCount(), 0.0);
}

TEST(NipsCiTest, SingleBitmapConfigurationWorks) {
  NipsCiOptions opts;
  opts.num_bitmaps = 1;
  opts.seed = 3;
  NipsCi nips(OneToOne(1), opts);
  for (ItemsetKey a = 0; a < 1000; ++a) nips.Observe(a, 1);
  // One bitmap is coarse; just demand the right order of magnitude.
  EXPECT_GT(nips.EstimateImplicationCount(), 150.0);
  EXPECT_LT(nips.EstimateImplicationCount(), 6000.0);
}

TEST(NipsCiTest, RejectsNonPowerOfTwoBitmaps) {
  NipsCiOptions opts;
  opts.num_bitmaps = 48;
  EXPECT_DEATH({ NipsCi nips(OneToOne(1), opts); }, "power of two");
}

// The maintained memory count (O(m) per ensemble) against the walk over
// every fringe cell it replaced, bitmap by bitmap and in total.
void ExpectCountsMatchWalk(const NipsCi& est, const std::string& step) {
  for (int i = 0; i < est.num_bitmaps(); ++i) {
    ASSERT_EQ(est.bitmap(i).MemoryBytes(), est.bitmap(i).RecountMemoryBytes())
        << step << ", bitmap " << i;
  }
  ASSERT_EQ(est.MemoryBytes(), est.RecountMemoryBytes()) << step;
}

// Drives every mutation path of the fringe — per-tuple and batched
// observes, budget evictions (F = 2 leaves room for 6 itemsets per
// bitmap), non-implication settles, merges, delta shipping into a twin,
// decode and restore — and checks the count after each step, under both
// multiplicity policies (the non-strict one reshapes pair counters).
TEST(NipsCiMemoryTest, CountEqualsTheWalkAfterEveryMutation) {
  for (bool strict : {true, false}) {
    ImplicationConditions cond;
    cond.max_multiplicity = 2;
    cond.min_support = 3;
    cond.min_top_confidence = 0.7;
    cond.confidence_c = 1;
    cond.strict_multiplicity = strict;
    NipsCiOptions opts;
    opts.num_bitmaps = 8;
    opts.nips.fringe_size = 2;
    opts.seed = 9;
    NipsCi est(cond, opts), twin(cond, opts), other(cond, opts);
    Rng rng(strict ? 1 : 2);
    auto pairs = [&rng](size_t n) {
      std::vector<ItemsetPair> out(n);
      for (ItemsetPair& p : out) {
        p.a = rng.Uniform(3000);
        p.b = p.a % 3 == 0 ? rng.Uniform(4) : p.a % 2;
      }
      return out;
    };
    uint64_t epoch = 0;
    bool twin_synced = false;
    for (int round = 0; round < 24; ++round) {
      const std::string at = "round " + std::to_string(round);
      for (const ItemsetPair& p : pairs(150)) est.Observe(p.a, p.b);
      ExpectCountsMatchWalk(est, at + ": Observe");
      est.ObserveBatch(pairs(400));
      ExpectCountsMatchWalk(est, at + ": ObserveBatch");

      if (!twin_synced) {
        StatusOr<std::string> full = est.SerializeState();
        ASSERT_TRUE(full.ok());
        ASSERT_TRUE(twin.RestoreState(*full).ok());
        ExpectCountsMatchWalk(twin, at + ": RestoreState");
        est.NoteSnapshotEpoch(++epoch);
        twin_synced = true;
      } else {
        StatusOr<std::string> delta = est.SerializeDelta(epoch, epoch + 1);
        ASSERT_TRUE(delta.ok()) << delta.status();
        ++epoch;
        ASSERT_TRUE(twin.ApplyDelta(*delta).ok());
        ExpectCountsMatchWalk(twin, at + ": ApplyDelta");
        ASSERT_EQ(twin.Serialize(), est.Serialize()) << at;
      }

      if (round % 5 == 4) {
        other.ObserveBatch(pairs(300));
        ASSERT_TRUE(est.Merge(other).ok());
        ExpectCountsMatchWalk(est, at + ": Merge");
        twin_synced = false;  // a merge drops every delta baseline
      }
      if (round % 7 == 6) {
        StatusOr<NipsCi> decoded = NipsCi::Deserialize(est.Serialize());
        ASSERT_TRUE(decoded.ok());
        ExpectCountsMatchWalk(*decoded, at + ": Deserialize");
      }
    }
    EXPECT_GT(est.TrackedItemsets(), 0u);
  }
}

// TotalSynopsisMemoryBytes sums the maintained counts of every live
// synopsis; it must equal the walk over the same synopses, after ingest
// and after an engine checkpoint restores into a fresh engine.
TEST(NipsCiMemoryTest, EngineTotalEqualsTheWalkOverItsSynopses) {
  const Schema schema({{"Source", 97}, {"Destination", 47}, {"Hour", 24}});
  auto spec = [](std::string a, std::string b, int m) {
    ImplicationQuerySpec out;
    out.a_attributes = {std::move(a)};
    out.b_attributes = {std::move(b)};
    out.conditions.max_multiplicity = 2;
    out.conditions.min_support = 2;
    out.conditions.min_top_confidence = 0.8;
    out.estimator.kind = EstimatorKind::kNipsCi;
    out.estimator.nips.num_bitmaps = m;
    out.estimator.nips.nips.fringe_size = 3;
    return out;
  };
  auto walk = [](const QueryEngine& engine) {
    std::set<const NipsCi*> synopses;
    for (QueryId id : engine.ActiveQueryIds()) {
      const auto* nips =
          dynamic_cast<const NipsCi*>(engine.Estimator(id).value());
      EXPECT_NE(nips, nullptr);
      if (nips != nullptr) synopses.insert(nips);
    }
    EXPECT_EQ(synopses.size(), 3u);
    uint64_t bytes = 0;
    for (const NipsCi* nips : synopses) bytes += nips->RecountMemoryBytes();
    return bytes;
  };
  QueryEngine engine(schema);
  ASSERT_TRUE(engine.Register(spec("Source", "Destination", 8)).ok());
  ASSERT_TRUE(engine.Register(spec("Destination", "Source", 16)).ok());
  ASSERT_TRUE(engine.Register(spec("Source", "Hour", 64)).ok());
  Rng rng(17);
  for (int round = 0; round < 8; ++round) {
    std::vector<ValueId> rows;
    for (int i = 0; i < 3000; ++i) {
      const ValueId source = static_cast<ValueId>(rng.Uniform(97));
      rows.push_back(source);
      rows.push_back(static_cast<ValueId>(
          source % 4 == 0 ? rng.Uniform(47) : source % 47));
      rows.push_back(static_cast<ValueId>(rng.Uniform(24)));
    }
    VectorStream stream(schema, std::move(rows));
    ASSERT_TRUE(engine.ObserveStream(stream).ok());
    ASSERT_EQ(engine.TotalSynopsisMemoryBytes(), walk(engine))
        << "round " << round;
  }
  StatusOr<std::string> checkpoint = engine.SerializeState();
  ASSERT_TRUE(checkpoint.ok());
  QueryEngine restored(schema);
  ASSERT_TRUE(restored.RestoreState(*checkpoint).ok());
  EXPECT_EQ(restored.TotalSynopsisMemoryBytes(), walk(restored));
  EXPECT_EQ(restored.TotalSynopsisMemoryBytes(),
            engine.TotalSynopsisMemoryBytes());
}

}  // namespace
}  // namespace implistat
