// Flajolet–Martin probabilistic counting (the paper's §4.1.1 substrate).
//
// A bitmap of L cells; element a sets cell p(hash(a)), the position of the
// least significant 1-bit. The position R of the leftmost zero estimates
// log2(φ·F0) with φ = 0.775351, so F̂0 = 2^R / φ. Lemma 1: cell i is hit by
// ~F0/2^(i+1) distinct elements.

#ifndef IMPLISTAT_SKETCH_FM_SKETCH_H_
#define IMPLISTAT_SKETCH_FM_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hash/hash64.h"
#include "sketch/distinct_counter.h"

namespace implistat {

/// Flajolet–Martin's bias correction constant: E[R] ≈ log2(φ F0).
inline constexpr double kFmPhi = 0.775351;

/// Calibrated readout for (ensembles of) FM bitmaps: returns the
/// per-bitmap load ν whose expected leftmost-zero rank equals `mean_rank`
/// under the Poissonized cell model
///
///   E[R](ν) = Σ_{k≥1} Π_{i=0}^{k−1} (1 − e^{−ν·2^{−(i+1)}}).
///
/// Unlike the asymptotic 2^R/φ formula this is accurate at small loads,
/// which matters for the subtractive CI estimator (core/ci.h) whose two
/// terms would otherwise inherit different quantization biases.
///
/// A pure function of its argument: a safeguarded Newton iteration on
/// log2 ν, seeded from 2^R̄/φ and kept inside the bracket
/// [2^−20, 2^62], where it pins inputs the bracket cannot reach.
/// Non-positive (and NaN) ranks read 0.
double FmInvertMeanRank(double mean_rank);

/// The model's forward map E[R](ν) (exposed for tests).
double FmExpectedRank(double load);

/// Readouts of an ensemble of m bitmaps from its integral rank sums:
/// Mean(k) is FmInvertMeanRank(k / m), the ensemble's per-bitmap load,
/// and LeaveOneOut(k) is FmInvertMeanRank(k / (m − 1)), the load of a
/// leave-one-bitmap-out replicate. For m a power of two up to
/// kMaxTableBitmaps both come from a process-wide table over every rank
/// sum m bitmaps of at most 64 − log2 m cells can reach, built once on
/// the first construction for that m and immutable afterwards; every
/// entry equals the direct inversion bit for bit. Other sizes, and sums
/// past the table (a decoded bitmap may be longer than a fresh one),
/// invert directly. Cheap to construct and copy; thread-safe.
class FmEnsembleReadout {
 public:
  /// Largest ensemble with a table (~230 KB at this size, ~59 KB at 64).
  static constexpr size_t kMaxTableBitmaps = 256;

  explicit FmEnsembleReadout(size_t num_bitmaps);

  double Mean(uint64_t rank_sum) const {
    if (table_ != nullptr && rank_sum < table_->mean.size()) {
      return table_->mean[rank_sum];
    }
    return FmInvertMeanRank(static_cast<double>(rank_sum) / m_);
  }

  /// Requires m >= 2.
  double LeaveOneOut(uint64_t rank_sum) const {
    if (table_ != nullptr && rank_sum < table_->leave_one_out.size()) {
      return table_->leave_one_out[rank_sum];
    }
    return FmInvertMeanRank(static_cast<double>(rank_sum) / (m_ - 1));
  }

  /// The shared table's entries, empty without a table; for tests.
  std::span<const double> mean_table() const {
    return table_ ? std::span<const double>(table_->mean)
                  : std::span<const double>();
  }
  std::span<const double> leave_one_out_table() const {
    return table_ ? std::span<const double>(table_->leave_one_out)
                  : std::span<const double>();
  }

 private:
  struct Table {
    std::vector<double> mean;           // FmInvertMeanRank(k / m)
    std::vector<double> leave_one_out;  // FmInvertMeanRank(k / (m − 1))
  };
  static const Table* SharedTable(size_t num_bitmaps);

  const Table* table_;  // null: no table for this m
  double m_;
};

class FmSketch final : public DistinctCounter {
 public:
  /// `bits` is the bitmap length L (cells); 64 suffices for any count.
  FmSketch(std::unique_ptr<Hasher64> hasher, int bits = 64);

  void Add(uint64_t key) override;
  double Estimate() const override;
  size_t MemoryBytes() const override;

  /// Position of the leftmost (least significant) zero cell — the raw
  /// estimator R. Equals `bits` when every cell is set.
  int LeftmostZero() const;

  /// Direct cell access for tests (0-based from the least significant).
  bool CellSet(int i) const { return (bitmap_ >> i) & 1; }

  int bits() const { return bits_; }

 private:
  std::unique_ptr<Hasher64> hasher_;
  uint64_t bitmap_ = 0;
  int bits_;
};

}  // namespace implistat

#endif  // IMPLISTAT_SKETCH_FM_SKETCH_H_
