#include "core/ci.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/nips_ci_ensemble.h"
#include "sketch/fm_sketch.h"
#include "util/random.h"
#include "util/serde.h"

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

NipsOptions Opts() {
  NipsOptions opts;
  opts.fringe_size = 8;
  opts.bitmap_bits = 32;
  return opts;
}

// The calibrated FM readout CI applies to each term: m bitmaps at mean
// rank R̄ decode to m · FmInvertMeanRank(R̄) distinct elements.
double Readout(double mean_rank, double m = 1.0) {
  return m * FmInvertMeanRank(mean_rank);
}

// Builds a bitmap where cells [0, non_impl) saw a non-implication and
// cells [0, sup) saw a supported itemset.
Nips BuildBitmap(int sup, int non_impl) {
  Nips nips(OneToOne(1), Opts());
  // Work right-to-left so fringe floating never forces undecided cells.
  for (int cell = sup - 1; cell >= 0; --cell) {
    ItemsetKey a = 1000 + cell;
    nips.ObserveAt(cell, a, 1);
    if (cell < non_impl) nips.ObserveAt(cell, a, 2);  // dirty
  }
  return nips;
}

TEST(CiTest, SingleBitmapEstimates) {
  Nips nips = BuildBitmap(/*sup=*/6, /*non_impl=*/3);
  EXPECT_EQ(nips.RSupport(), 6);
  EXPECT_EQ(nips.RNonImplication(), 3);
  CiEstimate est = CiFromBitmap(nips);
  EXPECT_NEAR(est.supported_distinct, Readout(6), Readout(6) * 1e-6);
  EXPECT_NEAR(est.non_implication, Readout(3), Readout(3) * 1e-6);
  EXPECT_NEAR(est.implication, Readout(6) - Readout(3),
              Readout(6) * 1e-6);
}

TEST(CiTest, RawEstimateIsUncorrected) {
  Nips nips = BuildBitmap(5, 2);
  EXPECT_DOUBLE_EQ(CiRawEstimate(nips), 32.0 - 4.0);
}

TEST(CiTest, ImplicationClampedAtZero) {
  // All supported itemsets are non-implications: R_sup == R_~S.
  Nips nips = BuildBitmap(4, 4);
  CiEstimate est = CiFromBitmap(nips);
  EXPECT_DOUBLE_EQ(est.implication, 0.0);
}

TEST(CiTest, EmptyBitmapGivesZeroImplication) {
  Nips nips(OneToOne(1), Opts());
  CiEstimate est = CiFromBitmap(nips);
  // R_sup == R_~S == 0: the two φ-corrected terms cancel.
  EXPECT_DOUBLE_EQ(est.implication, 0.0);
}

TEST(CiTest, EnsembleAveragesRanks) {
  std::vector<Nips> bitmaps;
  bitmaps.push_back(BuildBitmap(4, 1));
  bitmaps.push_back(BuildBitmap(6, 3));
  CiEstimate est = CiFromEnsemble(bitmaps);
  // mean R_sup = 5, mean R_~S = 2, m = 2.
  EXPECT_NEAR(est.supported_distinct, Readout(5, 2),
              Readout(5, 2) * 1e-6);
  EXPECT_NEAR(est.non_implication, Readout(2, 2), Readout(2, 2) * 1e-6);
}

TEST(CiTest, EnsembleHandlesFractionalMeanRank) {
  std::vector<Nips> bitmaps;
  bitmaps.push_back(BuildBitmap(4, 2));
  bitmaps.push_back(BuildBitmap(5, 2));
  CiEstimate est = CiFromEnsemble(bitmaps);
  EXPECT_NEAR(est.supported_distinct, Readout(4.5, 2),
              Readout(4.5, 2) * 1e-6);
}

// A NipsCi fed a mix of implications (one partner), non-implications
// (several partners) and itemsets below the support threshold.
NipsCi FedEnsemble(int m, uint64_t seed) {
  ImplicationConditions cond = OneToOne(2);
  NipsCiOptions opts;
  opts.num_bitmaps = m;
  opts.seed = seed;
  NipsCi est(cond, opts);
  Rng rng(seed);
  for (int i = 0; i < 40000; ++i) {
    const ItemsetKey a = rng.Uniform(6000);
    const ItemsetKey b = a % 5 == 0 ? rng.Uniform(3) : a + 7;
    est.Observe(a, b);
  }
  return est;
}

// Copies of the ensemble's bitmaps, for the span-based readouts.
std::vector<Nips> Bitmaps(const NipsCi& est) {
  std::vector<Nips> out;
  for (int i = 0; i < est.num_bitmaps(); ++i) {
    ByteWriter bytes;
    est.bitmap(i).SerializeTo(&bytes);
    const std::string data = bytes.Release();
    ByteReader reader(data);
    StatusOr<Nips> copy = Nips::Deserialize(&reader);
    EXPECT_TRUE(copy.ok()) << copy.status();
    out.push_back(std::move(copy).value());
  }
  return out;
}

struct Jackknife {
  CiEstimate estimate;
  CiEstimate std_error;
  std::vector<CiEstimate> replicates;
};

// The CI readout and its leave-one-bitmap-out jackknife, written as the
// textbook loop: every replicate kept in a vector, the implication
// replicate clamped at 0 only when `clamp_replicates` asks for it.
Jackknife TextbookJackknife(const NipsCi& est, bool clamp_replicates) {
  const int m = est.num_bitmaps();
  const double dm = m;
  double sum_sup = 0, sum_non = 0;
  for (int i = 0; i < m; ++i) {
    sum_sup += est.bitmap(i).RSupport();
    sum_non += est.bitmap(i).RNonImplication();
  }
  Jackknife out;
  out.estimate.supported_distinct = dm * FmInvertMeanRank(sum_sup / dm);
  out.estimate.non_implication = dm * FmInvertMeanRank(sum_non / dm);
  out.estimate.implication = std::max(
      0.0, out.estimate.supported_distinct - out.estimate.non_implication);
  for (int i = 0; i < m; ++i) {
    CiEstimate r;
    r.supported_distinct = dm * FmInvertMeanRank(
        (sum_sup - est.bitmap(i).RSupport()) / (dm - 1));
    r.non_implication = dm * FmInvertMeanRank(
        (sum_non - est.bitmap(i).RNonImplication()) / (dm - 1));
    r.implication = r.supported_distinct - r.non_implication;
    if (clamp_replicates) r.implication = std::max(0.0, r.implication);
    out.replicates.push_back(r);
  }
  CiEstimate mean;
  for (const CiEstimate& r : out.replicates) {
    mean.supported_distinct += r.supported_distinct / dm;
    mean.non_implication += r.non_implication / dm;
    mean.implication += r.implication / dm;
  }
  CiEstimate var;
  for (const CiEstimate& r : out.replicates) {
    var.supported_distinct += (r.supported_distinct - mean.supported_distinct) *
                              (r.supported_distinct - mean.supported_distinct);
    var.non_implication += (r.non_implication - mean.non_implication) *
                           (r.non_implication - mean.non_implication);
    var.implication += (r.implication - mean.implication) *
                       (r.implication - mean.implication);
  }
  const double scale = (dm - 1) / dm;
  out.std_error.supported_distinct = std::sqrt(scale * var.supported_distinct);
  out.std_error.non_implication = std::sqrt(scale * var.non_implication);
  out.std_error.implication = std::sqrt(scale * var.implication);
  return out;
}

TEST(CiJackknifeTest, MatchesTheTextbookLoop) {
  for (int m : {8, 64}) {
    const NipsCi est = FedEnsemble(m, 40 + m);
    const Jackknife want = TextbookJackknife(est, /*clamp_replicates=*/false);
    ASSERT_GT(want.std_error.implication, 0.0) << "m " << m;

    const CiEstimate got = est.Estimate();
    EXPECT_DOUBLE_EQ(got.supported_distinct,
                     want.estimate.supported_distinct);
    EXPECT_DOUBLE_EQ(got.non_implication, want.estimate.non_implication);
    EXPECT_DOUBLE_EQ(got.implication, want.estimate.implication);
    EXPECT_DOUBLE_EQ(est.EstimateStdError(), want.std_error.implication);

    const std::vector<Nips> bitmaps = Bitmaps(est);
    const CiEstimate se = CiEnsembleStdError(bitmaps);
    EXPECT_DOUBLE_EQ(se.supported_distinct,
                     want.std_error.supported_distinct);
    EXPECT_DOUBLE_EQ(se.non_implication, want.std_error.non_implication);
    EXPECT_DOUBLE_EQ(se.implication, want.std_error.implication);
  }
}

// R_F0sup >= R_~S in every bitmap, so every leave-one-out sum for F0_sup
// is at least its ~S sum and no implication replicate is negative: the
// jackknife over the unclamped difference reports exactly what the
// clamped one did.
TEST(CiJackknifeTest, NoReplicateClampsSoTheClampedFormulaAgrees) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const NipsCi est = FedEnsemble(64, seed);
    const Jackknife clamped = TextbookJackknife(est, /*clamp_replicates=*/true);
    for (int i = 0; i < est.num_bitmaps(); ++i) {
      ASSERT_GE(est.bitmap(i).RSupport(), est.bitmap(i).RNonImplication());
    }
    for (const CiEstimate& r : TextbookJackknife(est, false).replicates) {
      ASSERT_GE(r.implication, 0.0);
    }
    EXPECT_EQ(est.EstimateStdError(), clamped.std_error.implication)
        << "seed " << seed;
  }
}

}  // namespace
}  // namespace implistat
