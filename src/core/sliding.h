// Sliding-window implication counts (§3.2, Figure 2).
//
// The paper supports sliding queries by "maintaining a vector of
// implication counts with different origins and appropriately retiring old
// ones". SlidingNipsCi keeps one NipsCi per origin, started every `stride`
// tuples and retired once its origin falls more than one window behind;
// the window estimate is read from the youngest estimator whose origin is
// at least `window` tuples old (the count of itemsets that appeared and
// held the conditions over, at most, the last window + stride tuples).

#ifndef IMPLISTAT_CORE_SLIDING_H_
#define IMPLISTAT_CORE_SLIDING_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>

#include "core/estimator.h"
#include "core/nips_ci_ensemble.h"

namespace implistat {

struct SlidingOptions {
  /// Window length in tuples.
  uint64_t window = 100000;
  /// A new origin is opened every `stride` tuples; the window estimate's
  /// granularity. Must divide the window for exact retirement.
  uint64_t stride = 10000;
  NipsCiOptions estimator;
};

/// An ImplicationEstimator, so the query engine serves windowed queries
/// (WITH WINDOW = n in the query syntax) through the same code path as
/// lifetime queries.
class SlidingNipsCi final : public ImplicationEstimator {
 public:
  SlidingNipsCi(ImplicationConditions conditions, SlidingOptions options);

  /// Feeds one (a, b) element; advances the clock by one tuple.
  void Observe(ItemsetKey a, ItemsetKey b) override;

  /// Implication count over (approximately) the trailing window. Before a
  /// full window has elapsed, this is the count since the stream start.
  double EstimateImplicationCount() const override;

  /// Non-implication count over the same trailing window.
  double EstimateNonImplicationCount() const override;

  size_t MemoryBytes() const override;
  std::string name() const override { return "NIPS/CI-sliding"; }

  /// Number of estimators currently maintained (window/stride + 1 in
  /// steady state).
  size_t num_origins() const { return origins_.size(); }

  uint64_t tuples_seen() const { return tuples_; }

  /// Durable state (kSlidingNipsCi envelope): the tuple clock, the seed
  /// cursor, and every live origin's sketch round-trip, so a restored
  /// window continues opening/retiring origins exactly where the saved
  /// one would have. MergeFrom stays Unimplemented: two windows' origins
  /// are not aligned on a shared stream position, so there is no sound
  /// merge.
  StatusOr<std::string> SerializeState() const override;
  Status RestoreState(std::string_view snapshot) override;

 private:
  struct Origin {
    uint64_t start;  // stream position at which this estimator began
    std::unique_ptr<NipsCi> estimator;
  };

  ImplicationConditions conditions_;
  SlidingOptions options_;
  std::deque<Origin> origins_;
  uint64_t tuples_ = 0;
  uint64_t next_seed_ = 0;
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_SLIDING_H_
