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

class SlidingNipsCi {
 public:
  SlidingNipsCi(ImplicationConditions conditions, SlidingOptions options);

  /// Feeds one (a, b) element; advances the clock by one tuple.
  void Observe(ItemsetKey a, ItemsetKey b);

  /// Implication count over (approximately) the trailing window. Before a
  /// full window has elapsed, this is the count since the stream start.
  double WindowEstimate() const;

  /// Non-implication count over the same trailing window.
  double WindowNonImplicationEstimate() const;

  /// Number of estimators currently maintained (window/stride + 1 in
  /// steady state).
  size_t num_origins() const { return origins_.size(); }

  uint64_t tuples_seen() const { return tuples_; }
  size_t MemoryBytes() const;

  /// Durable state (kSlidingNipsCi envelope): the tuple clock, the seed
  /// cursor, and every live origin's sketch round-trip, so a restored
  /// window continues opening/retiring origins exactly where the saved
  /// one would have.
  StatusOr<std::string> SerializeState() const;
  Status RestoreState(std::string_view snapshot);

  // --- Delta shipping (src/delta/) ---------------------------------------
  //
  // The sliding window is the kind deltas pay for most: a full snapshot
  // re-ships every origin (window/stride + 1 of them), but between two
  // polls a mature origin's bitmaps barely move — only the youngest
  // origins churn. A delta ships, per live origin, either a NipsCi delta
  // fragment (origin existed at the baseline) or its full sketch (origin
  // opened since); origins the sender retired simply stop appearing, and
  // the receiver drops them. Applying to a byte-identical baseline
  // reproduces the sender's SerializeState byte-for-byte.

  /// Records epoch `epoch` as a delta baseline (forwarded to every
  /// origin's ensemble, which starts stamping mutations).
  void NoteSnapshotEpoch(uint64_t epoch);

  /// Ships the changes since `since_epoch`; NotFound when that epoch was
  /// never noted (or has been forgotten) — the caller resyncs with a
  /// full snapshot.
  StatusOr<std::string> SerializeDelta(uint64_t since_epoch,
                                       uint64_t current_epoch);

  /// Applies a delta produced against a byte-identical baseline of this
  /// window. Decode-and-validate happens for every origin before any
  /// origin mutates; on failure the window is untouched.
  Status ApplyDelta(std::string_view fragment);

 private:
  struct Origin {
    uint64_t start;  // stream position at which this estimator began
    std::unique_ptr<NipsCi> estimator;
  };
  static constexpr size_t kMaxDeltaEpochs = 8;

  void RecordDeltaEpoch(uint64_t epoch);

  ImplicationConditions conditions_;
  SlidingOptions options_;
  std::deque<Origin> origins_;
  uint64_t tuples_ = 0;
  uint64_t next_seed_ = 0;
  // Epochs with a remembered baseline (per-origin clocks live in the
  // origins' own ensembles; this gates the NotFound answer).
  std::deque<uint64_t> delta_epochs_;
};

/// Adapts SlidingNipsCi to the ImplicationEstimator interface so the
/// query engine can serve windowed queries (WITH WINDOW = n in the query
/// syntax) through the same code path as lifetime queries.
class SlidingNipsCiEstimator final : public ImplicationEstimator {
 public:
  SlidingNipsCiEstimator(ImplicationConditions conditions,
                         SlidingOptions options)
      : sliding_(conditions, options) {}

  void Observe(ItemsetKey a, ItemsetKey b) override {
    sliding_.Observe(a, b);
  }
  double EstimateImplicationCount() const override {
    return sliding_.WindowEstimate();
  }
  double EstimateNonImplicationCount() const override {
    return sliding_.WindowNonImplicationEstimate();
  }
  size_t MemoryBytes() const override { return sliding_.MemoryBytes(); }
  std::string name() const override { return "NIPS/CI-sliding"; }

  /// Durable-state contract (core/estimator.h), forwarded to the wrapped
  /// window. MergeFrom stays Unimplemented: two windows' origins are not
  /// aligned on a shared stream position, so there is no sound merge.
  StatusOr<std::string> SerializeState() const override {
    return sliding_.SerializeState();
  }
  Status RestoreState(std::string_view snapshot) override {
    return sliding_.RestoreState(snapshot);
  }

  /// Delta contract (core/estimator.h). The const_casts mirror NipsCi:
  /// serving a delta is logically read-only, the baseline bookkeeping is
  /// its mutable side effect.
  StatusOr<std::string> SerializeDelta(uint64_t since_epoch,
                                       uint64_t current_epoch) const override {
    return const_cast<SlidingNipsCi&>(sliding_).SerializeDelta(since_epoch,
                                                               current_epoch);
  }
  Status ApplyDelta(std::string_view fragment) override {
    return sliding_.ApplyDelta(fragment);
  }
  void NoteSnapshotEpoch(uint64_t epoch) const override {
    const_cast<SlidingNipsCi&>(sliding_).NoteSnapshotEpoch(epoch);
  }

  const SlidingNipsCi& sliding() const { return sliding_; }

 private:
  SlidingNipsCi sliding_;
};

/// First byte of every sliding-window delta fragment (cross-kind apply
/// check against kNipsCiDeltaTag).
inline constexpr uint8_t kSlidingDeltaTag = 2;

}  // namespace implistat

#endif  // IMPLISTAT_CORE_SLIDING_H_
