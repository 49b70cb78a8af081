#include "sketch/fm_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <mutex>
#include <numbers>

#include "util/bits.h"
#include "util/logging.h"

namespace implistat {

namespace {

struct RankAndSlope {
  double rank = 0;   // E[R](ν)
  double slope = 0;  // dE[R] / d log2 ν
};

// E[R](ν) and its derivative in one pass over the cells. The rank takes
// exactly the operations of the plain series: halving x is exact, and a
// skipped factor is one the series would have multiplied in as 1.0.
RankAndSlope ExpectedRankAndSlope(double load) {
  RankAndSlope out;
  if (!(load > 0)) return out;
  double prefix_all_hit = 1.0;  // P(R >= k) = Π_{i<k} (1 − e^{−x_i})
  double log_slope = 0;         // d ln P(R >= k) / d ln ν
  double x = 0.5 * load;        // x_i = ν·2^{−(i+1)}
  for (int i = 0; i < 64 && prefix_all_hit > 1e-12; ++i, x *= 0.5) {
    // 1 − e^{−x} rounds to exactly 1.0 once e^{−x} < 2^−54, i.e. x ≥ 38.
    if (x < 38) {
      const double miss = std::exp(-x);
      const double hit = 1.0 - miss;
      prefix_all_hit *= hit;
      log_slope += x * miss / hit;
    }
    out.rank += prefix_all_hit;  // adds P(R >= i+1)
    out.slope += prefix_all_hit * log_slope;
  }
  out.slope *= std::numbers::ln2;
  return out;
}

// The search bracket on log2 ν; ranks beyond it read its ends.
constexpr double kMinLog2Load = -20;
constexpr double kMaxLog2Load = 62;

}  // namespace

double FmExpectedRank(double load) {
  return ExpectedRankAndSlope(load).rank;
}

double FmInvertMeanRank(double mean_rank) {
  if (!(mean_rank > 0)) return 0;
  // Newton on t = log2 ν, where E[R] is nearly linear except at the
  // smallest loads. Every iterate tightens a bracket on the root; a step
  // that would leave it bisects instead, so a poor seed or a flat slope
  // costs iterations, never convergence. A Newton step this small lands
  // within E[R]'s rounding noise of the root, where the bracket test
  // would only bounce off it.
  double lo = kMinLog2Load, hi = kMaxLog2Load;
  double t = std::clamp(mean_rank - std::log2(kFmPhi), lo, hi);
  for (int iter = 0; iter < 200 && hi - lo > 1e-14; ++iter) {
    const RankAndSlope at = ExpectedRankAndSlope(std::exp2(t));
    const double newton = t - (at.rank - mean_rank) / at.slope;
    if (std::abs(newton - t) <= 1e-12) return std::exp2(newton);
    if (at.rank < mean_rank) {
      lo = t;
    } else {
      hi = t;
    }
    t = newton > lo && newton < hi ? newton : 0.5 * (lo + hi);
  }
  return std::exp2(t);
}

FmEnsembleReadout::FmEnsembleReadout(size_t num_bitmaps)
    : table_(SharedTable(num_bitmaps)),
      m_(static_cast<double>(num_bitmaps)) {}

const FmEnsembleReadout::Table* FmEnsembleReadout::SharedTable(size_t m) {
  if (m == 0 || m > kMaxTableBitmaps || !IsPowerOfTwo(m)) return nullptr;
  constexpr int kSlots = std::bit_width(kMaxTableBitmaps);  // log2 m + 1
  static std::once_flag filled[kSlots];
  static const Table* tables[kSlots];
  const int log2_m = FloorLog2(m);
  std::call_once(filled[log2_m], [m, log2_m] {
    // Routing takes log2 m hash bits, so a bitmap has at most
    // 64 − log2 m cells and its rank cannot exceed that.
    const size_t max_rank = static_cast<size_t>(64 - log2_m);
    auto* table = new Table;
    table->mean.resize(m * max_rank + 1);
    for (size_t k = 0; k < table->mean.size(); ++k) {
      table->mean[k] =
          FmInvertMeanRank(static_cast<double>(k) / static_cast<double>(m));
    }
    if (m >= 2) {
      table->leave_one_out.resize((m - 1) * max_rank + 1);
      for (size_t k = 0; k < table->leave_one_out.size(); ++k) {
        table->leave_one_out[k] = FmInvertMeanRank(
            static_cast<double>(k) / static_cast<double>(m - 1));
      }
    }
    tables[log2_m] = table;  // never freed: readers may run until exit
  });
  return tables[log2_m];
}

FmSketch::FmSketch(std::unique_ptr<Hasher64> hasher, int bits)
    : hasher_(std::move(hasher)), bits_(bits) {
  IMPLISTAT_CHECK(bits_ >= 1 && bits_ <= 64) << "bitmap length out of range";
  IMPLISTAT_CHECK(hasher_ != nullptr);
}

void FmSketch::Add(uint64_t key) {
  int i = RhoLsb(hasher_->Hash(key));
  if (i < bits_) bitmap_ |= uint64_t{1} << i;
}

int FmSketch::LeftmostZero() const {
  int r = RhoLsb(~bitmap_);
  return r > bits_ ? bits_ : r;
}

double FmSketch::Estimate() const {
  return std::pow(2.0, LeftmostZero()) / kFmPhi;
}

size_t FmSketch::MemoryBytes() const {
  // The bitmap itself plus the hasher seed; L bits rounded up.
  return static_cast<size_t>((bits_ + 7) / 8) + sizeof(uint64_t);
}

}  // namespace implistat
