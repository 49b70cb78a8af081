#include "core/sliding.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "core/moving_average.h"

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

SlidingOptions SmallWindow(uint64_t window, uint64_t stride) {
  SlidingOptions opts;
  opts.window = window;
  opts.stride = stride;
  opts.estimator.num_bitmaps = 64;
  opts.estimator.seed = 9;
  return opts;
}

TEST(SlidingTest, MaintainsBoundedOrigins) {
  SlidingNipsCi sliding(OneToOne(1), SmallWindow(1000, 250));
  for (uint64_t i = 0; i < 5000; ++i) {
    sliding.Observe(i % 100, 1);
  }
  // window/stride + 1 = 5 origins in steady state.
  EXPECT_LE(sliding.num_origins(), 5u);
  EXPECT_GE(sliding.num_origins(), 4u);
}

TEST(SlidingTest, WindowEstimateDropsRetiredItemsets) {
  // Phase A: itemsets 0..999 appear (twice each) in the first 2000 tuples,
  // then never again. Phase B: only itemsets 5000..5049 keep appearing.
  SlidingNipsCi sliding(OneToOne(2), SmallWindow(2000, 500));
  for (uint64_t i = 0; i < 1000; ++i) {
    sliding.Observe(i, 1);
    sliding.Observe(i, 1);
  }
  double during = sliding.EstimateImplicationCount();
  EXPECT_NEAR(during, 1000, 1000 * 0.35);
  for (uint64_t i = 0; i < 8000; ++i) {
    sliding.Observe(5000 + (i % 50), 1);
  }
  double after = sliding.EstimateImplicationCount();
  // The window now covers only phase-B traffic: ~50 itemsets.
  EXPECT_LT(after, 300.0);
}

TEST(SlidingTest, BeforeFirstWindowCountsFromStart) {
  SlidingNipsCi sliding(OneToOne(1), SmallWindow(10000, 1000));
  for (uint64_t i = 0; i < 500; ++i) sliding.Observe(i, 1);
  EXPECT_EQ(sliding.num_origins(), 1u);
  EXPECT_NEAR(sliding.EstimateImplicationCount(), 500, 500 * 0.35);
}

TEST(SlidingTest, TuplesSeenAdvances) {
  SlidingNipsCi sliding(OneToOne(1), SmallWindow(100, 50));
  for (uint64_t i = 0; i < 321; ++i) sliding.Observe(1, 2);
  EXPECT_EQ(sliding.tuples_seen(), 321u);
}

TEST(SlidingTest, WindowNonImplicationEstimate) {
  // Violators in the window are visible through the complement readout.
  SlidingNipsCi sliding(OneToOne(2), SmallWindow(4000, 1000));
  for (uint64_t i = 0; i < 1000; ++i) {
    sliding.Observe(i, 1);
    sliding.Observe(i, 2);  // K = 1 violated for every itemset
  }
  EXPECT_NEAR(sliding.EstimateNonImplicationCount(), 1000, 1000 * 0.35);
  EXPECT_LT(sliding.EstimateImplicationCount(), 300.0);
}

TEST(SlidingTest, ComplexImplicationMovingAverage) {
  // Table 2's "complex implication": a moving average of a windowed
  // implication count. Phase A has ~200 qualifying itemsets per window,
  // phase B ~40; the moving average transitions between the plateaus.
  MovingAverage avg(4);
  SlidingNipsCi sliding(OneToOne(2), SmallWindow(2000, 500));
  uint64_t tuples = 0;
  auto run_phase = [&](uint64_t itemset_base, uint64_t population,
                       uint64_t phase_tuples) {
    for (uint64_t i = 0; i < phase_tuples; ++i) {
      sliding.Observe(itemset_base + (i % population), 1);
      if (++tuples % 500 == 0) {
        avg.AddSample(sliding.EstimateImplicationCount());
      }
    }
  };
  run_phase(0, 200, 6000);
  double phase_a = avg.Average();
  EXPECT_NEAR(phase_a, 200, 200 * 0.4);
  run_phase(100000, 40, 8000);
  double phase_b = avg.Average();
  EXPECT_LT(phase_b, phase_a * 0.6);
}

TEST(SlidingTest, ImplementsEstimatorInterface) {
  SlidingNipsCi sliding(OneToOne(1), SmallWindow(1000, 250));
  ImplicationEstimator& estimator = sliding;
  for (uint64_t i = 0; i < 500; ++i) estimator.Observe(i, 1);
  EXPECT_EQ(estimator.name(), "NIPS/CI-sliding");
  EXPECT_NEAR(estimator.EstimateImplicationCount(), 500, 500 * 0.35);
  EXPECT_GT(estimator.MemoryBytes(), 0u);
  // Two windows share no stream position, so neither merges into the
  // other.
  SlidingNipsCi other(OneToOne(1), SmallWindow(1000, 250));
  EXPECT_EQ(estimator.MergeFrom(other).code(), StatusCode::kUnimplemented);
}

// 64-bit FNV-1a. Not the envelope's CRC32C: a CRC taken over bytes that
// end in their own CRC is the same constant for every snapshot.
uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// The kSlidingNipsCi checkpoint bytes are pinned: a small deterministic
// window (fixed seed, fixed rows, five live origins after retirements)
// must serialize to exactly these bytes, so a refactor of the class
// cannot silently change what a checkpoint holds.
TEST(SlidingTest, SnapshotBytesAreGolden) {
  SlidingOptions options = SmallWindow(400, 100);
  options.estimator.num_bitmaps = 8;
  SlidingNipsCi sliding(OneToOne(2), options);
  for (uint64_t i = 0; i < 1050; ++i) {
    ItemsetKey a = i % 137;
    sliding.Observe(a, a % 7 == 0 ? i % 3 : 1);
  }
  ASSERT_EQ(sliding.num_origins(), 5u);
  StatusOr<std::string> state = sliding.SerializeState();
  ASSERT_TRUE(state.ok()) << state.status();
  EXPECT_EQ(state->size(), 18250u);
  EXPECT_EQ(Fnv1a64(*state), 0x1b3f149b58f72f33ull);
}

TEST(SlidingTest, MemoryScalesWithOriginsNotStream) {
  SlidingNipsCi sliding(OneToOne(1), SmallWindow(1000, 500));
  for (uint64_t i = 0; i < 2000; ++i) sliding.Observe(i % 64, 1);
  size_t early = sliding.MemoryBytes();
  for (uint64_t i = 0; i < 20000; ++i) sliding.Observe(i % 64, 1);
  EXPECT_LT(sliding.MemoryBytes(), early * 4);
}

}  // namespace
}  // namespace implistat
