#include "sketch/fm_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "hash/hash_family.h"
#include "util/random.h"

namespace implistat {
namespace {

std::unique_ptr<Hasher64> Mix(uint64_t seed) {
  return MakeHasher(HashKind::kMix, seed);
}

TEST(FmSketchTest, EmptySketchHasLeftmostZeroAtOrigin) {
  FmSketch sketch(Mix(1));
  EXPECT_EQ(sketch.LeftmostZero(), 0);
  EXPECT_NEAR(sketch.Estimate(), 1.0 / kFmPhi, 1e-9);
}

TEST(FmSketchTest, DuplicatesDoNotMoveTheEstimator) {
  FmSketch sketch(Mix(2));
  sketch.Add(42);
  int r = sketch.LeftmostZero();
  for (int i = 0; i < 1000; ++i) sketch.Add(42);
  EXPECT_EQ(sketch.LeftmostZero(), r);
}

TEST(FmSketchTest, CellsFillGeometrically) {
  FmSketch sketch(Mix(3));
  for (uint64_t k = 0; k < 100000; ++k) sketch.Add(k);
  // Lemma 1: cell i receives ~F0/2^(i+1) distinct elements, so the low
  // cells are certainly set and the high cells certainly are not.
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(sketch.CellSet(i)) << i;
  for (int i = 30; i < sketch.bits(); ++i) {
    EXPECT_FALSE(sketch.CellSet(i)) << i;
  }
}

TEST(FmSketchTest, MemoryIsTiny) {
  FmSketch sketch(Mix(4));
  for (uint64_t k = 0; k < 100000; ++k) sketch.Add(k);
  EXPECT_LE(sketch.MemoryBytes(), 64u);
}

TEST(FmSketchTest, RIsNearLogPhiF0) {
  // E[R] ≈ log2(φ·F0): average R over many independent sketches.
  constexpr uint64_t kF0 = 1 << 14;
  constexpr int kSketches = 40;
  double sum_r = 0;
  for (int s = 0; s < kSketches; ++s) {
    FmSketch sketch(Mix(1000 + s));
    for (uint64_t k = 0; k < kF0; ++k) sketch.Add(k);
    sum_r += sketch.LeftmostZero();
  }
  double mean_r = sum_r / kSketches;
  double expected = std::log2(kFmPhi * kF0);
  EXPECT_NEAR(mean_r, expected, 0.75);
}

// Parameterized sweep: a single bitmap's estimate is within a factor of ~2
// of the truth across magnitudes (single-sketch FM is coarse by design;
// PCSA tightens it).
class FmAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FmAccuracyTest, WithinFactorTwoOnAverage) {
  const uint64_t f0 = GetParam();
  constexpr int kSketches = 24;
  double sum_estimate = 0;
  Rng keygen(GetParam());
  std::vector<uint64_t> keys(f0);
  for (auto& k : keys) k = keygen.Next64();
  for (int s = 0; s < kSketches; ++s) {
    FmSketch sketch(Mix(500 + s));
    for (uint64_t k : keys) sketch.Add(k);
    sum_estimate += sketch.Estimate();
  }
  double mean = sum_estimate / kSketches;
  EXPECT_GT(mean, f0 / 2.0);
  EXPECT_LT(mean, f0 * 2.0);
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, FmAccuracyTest,
                         ::testing::Values(100, 1000, 10000, 100000));

TEST(FmCalibrationTest, ExpectedRankIsMonotone) {
  double prev = -1;
  for (double load : {0.0, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4, 1e8}) {
    double rank = FmExpectedRank(load);
    EXPECT_GT(rank, prev) << "load " << load;
    prev = rank;
  }
}

TEST(FmCalibrationTest, ExpectedRankMatchesAsymptoticLaw) {
  // For large ν, E[R] → log2(φ·ν).
  for (double load : {1e4, 1e6, 1e9}) {
    EXPECT_NEAR(FmExpectedRank(load), std::log2(kFmPhi * load), 0.02)
        << "load " << load;
  }
}

TEST(FmCalibrationTest, InvertRoundTrips) {
  for (double load : {0.5, 1.0, 3.0, 12.5, 100.0, 1e5, 1e9}) {
    double rank = FmExpectedRank(load);
    EXPECT_NEAR(FmInvertMeanRank(rank) / load, 1.0, 1e-4)
        << "load " << load;
  }
}

TEST(FmCalibrationTest, ZeroRankIsZeroLoad) {
  EXPECT_DOUBLE_EQ(FmInvertMeanRank(0.0), 0.0);
  EXPECT_DOUBLE_EQ(FmExpectedRank(0.0), 0.0);
}

TEST(FmCalibrationTest, EmpiricalMeanRankDecodesTruly) {
  // End-to-end calibration check at an awkward small load: 64 bitmaps,
  // 800 keys → ν = 12.5 per bitmap, where the asymptotic 2^R/φ readout
  // is biased by tens of percent.
  constexpr int kRuns = 30;
  constexpr int kBitmaps = 64;
  constexpr uint64_t kKeysPerBitmap = 13;
  double total_ratio = 0;
  for (int run = 0; run < kRuns; ++run) {
    double sum_r = 0;
    Rng keygen(run * 31 + 7);
    for (int b = 0; b < kBitmaps; ++b) {
      FmSketch sketch(Mix(run * 100 + b));
      for (uint64_t k = 0; k < kKeysPerBitmap; ++k) {
        sketch.Add(keygen.Next64());
      }
      sum_r += sketch.LeftmostZero();
    }
    double decoded = kBitmaps * FmInvertMeanRank(sum_r / kBitmaps);
    total_ratio += decoded / (kKeysPerBitmap * kBitmaps);
  }
  EXPECT_NEAR(total_ratio / kRuns, 1.0, 0.10);
}

// FmInvertMeanRank before its Newton rewrite: 80 halvings of the bracket
// [−20, 62] on log2 ν. Kept as the oracle the rewrite must match. It
// calls FmExpectedRank, which equals the plain series it called then bit
// for bit (ExpectedRankIsThePlainSeries).
double BisectMeanRank(double mean_rank) {
  if (mean_rank <= 0) return 0;
  double lo = -20, hi = 62;
  for (int iter = 0; iter < 80; ++iter) {
    double mid = 0.5 * (lo + hi);
    if (FmExpectedRank(std::pow(2.0, mid)) < mean_rank) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return std::pow(2.0, 0.5 * (lo + hi));
}

// The forward map as first written: one pow per cell, every factor
// multiplied in.
double PlainSeriesExpectedRank(double load) {
  if (load <= 0) return 0;
  double expectation = 0;
  double prefix_all_hit = 1.0;
  for (int i = 0; i < 64 && prefix_all_hit > 1e-12; ++i) {
    prefix_all_hit *= 1.0 - std::exp(-load * std::pow(2.0, -(i + 1)));
    expectation += prefix_all_hit;
  }
  return expectation;
}

void ExpectMatchesBisection(double mean_rank) {
  const double bisected = BisectMeanRank(mean_rank);
  EXPECT_NEAR(FmInvertMeanRank(mean_rank), bisected, bisected * 1e-13)
      << "mean rank " << mean_rank;
}

TEST(FmCalibrationTest, ExpectedRankIsThePlainSeries) {
  for (double load = 1e-7; load < 1e20; load *= 1.37) {
    ASSERT_EQ(FmExpectedRank(load), PlainSeriesExpectedRank(load))
        << "load " << load;
  }
}

TEST(FmCalibrationTest, InvertMatchesBisectionOnTheLedgerGrid) {
  for (int i = 0; i < 512; ++i) ExpectMatchesBisection(2.0 + 0.0173 * i);
  // Either end of the bracket, where the bisection pins.
  for (double rank : {1e-9, 61.9, 63.0, 64.0}) ExpectMatchesBisection(rank);
}

TEST(FmReadoutTableTest, EntriesAreTheInversionOverTheWholeDomain) {
  for (size_t m : {1, 2, 8, 64, 256}) {
    const FmEnsembleReadout readout(m);
    const double dm = static_cast<double>(m);
    const size_t max_rank = 64 - static_cast<size_t>(std::log2(dm));
    std::span<const double> mean = readout.mean_table();
    std::span<const double> loo = readout.leave_one_out_table();
    ASSERT_EQ(mean.size(), m * max_rank + 1) << "m " << m;
    ASSERT_EQ(loo.size(), m == 1 ? 0 : (m - 1) * max_rank + 1) << "m " << m;
    for (size_t k = 0; k < mean.size(); ++k) {
      const double rank = static_cast<double>(k) / dm;
      ASSERT_EQ(mean[k], FmInvertMeanRank(rank)) << "m " << m << " k " << k;
      ASSERT_EQ(readout.Mean(k), mean[k]);
      ExpectMatchesBisection(rank);
    }
    for (size_t k = 0; k < loo.size(); ++k) {
      const double rank = static_cast<double>(k) / (dm - 1);
      ASSERT_EQ(loo[k], FmInvertMeanRank(rank)) << "m " << m << " k " << k;
      ASSERT_EQ(readout.LeaveOneOut(k), loo[k]);
      ExpectMatchesBisection(rank);
    }
    // A sum past the table (a decoded bitmap longer than a fresh one)
    // inverts directly.
    EXPECT_EQ(readout.Mean(mean.size()),
              FmInvertMeanRank(static_cast<double>(mean.size()) / dm));
  }
}

TEST(FmReadoutTableTest, LargeEnsemblesInvertDirectly) {
  const size_t m = 2 * FmEnsembleReadout::kMaxTableBitmaps;
  const FmEnsembleReadout readout(m);
  EXPECT_TRUE(readout.mean_table().empty());
  EXPECT_TRUE(readout.leave_one_out_table().empty());
  for (uint64_t k : {0, 1, 777, 9000}) {
    EXPECT_EQ(readout.Mean(k), FmInvertMeanRank(k / 512.0));
    EXPECT_EQ(readout.LeaveOneOut(k), FmInvertMeanRank(k / 511.0));
  }
}

TEST(FmSketchTest, ShortBitmapSaturates) {
  FmSketch sketch(Mix(5), 4);
  for (uint64_t k = 0; k < 10000; ++k) sketch.Add(k);
  EXPECT_EQ(sketch.LeftmostZero(), 4);
}

}  // namespace
}  // namespace implistat
