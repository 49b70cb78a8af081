// NipsCi — the user-facing implication-count estimator: NIPS bitmaps with
// stochastic averaging, read out by CI.
//
// The paper's configuration (§6, Table 5) is 64 bitmaps with a fringe of 4
// cells and capacity factor 2, i.e. room for 64·2·(2⁴−1) = 1920 itemsets —
// independent of attribute cardinality and stream length (§4.6).

#ifndef IMPLISTAT_CORE_NIPS_CI_ENSEMBLE_H_
#define IMPLISTAT_CORE_NIPS_CI_ENSEMBLE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/ci.h"
#include "core/estimator.h"
#include "core/nips.h"
#include "hash/hash_family.h"
#include "obs/metrics.h"
#include "util/bits.h"

namespace implistat {

struct NipsCiOptions {
  /// Number of bitmaps m; must be a power of two. m = 1 disables
  /// stochastic averaging.
  int num_bitmaps = 64;
  NipsOptions nips;
  HashKind hash_kind = HashKind::kMix;
  uint64_t seed = 0;
};

class NipsCi final : public ImplicationEstimator {
 public:
  NipsCi(ImplicationConditions conditions, NipsCiOptions options);

  void Observe(ItemsetKey a, ItemsetKey b) override;

  /// Batched fast path: one virtual call per batch, hashes precomputed in
  /// a tight loop, each target cell software-prefetched before its update.
  /// Bit-identical to calling Observe per element (same routing, same
  /// per-bitmap order); the ingest count stays exact, only the sampled
  /// latency histogram skips batch-fed tuples.
  void ObserveBatch(std::span<const ItemsetPair> batch) override;

  double EstimateImplicationCount() const override;
  double EstimateNonImplicationCount() const override;
  double EstimateSupportedDistinct() const override;
  /// Leave-one-bitmap-out jackknife 1σ on the implication count (see
  /// core/ci.h); 0 for m = 1.
  double EstimateStdError() const override;
  /// The same jackknife's 1σ on the non-implication count.
  double EstimateNonImplicationStdError() const override;
  /// O(m): each bitmap keeps its own count (core/nips.h).
  size_t MemoryBytes() const override;
  /// The same figure by walking every fringe cell; for tests.
  size_t RecountMemoryBytes() const;
  std::string name() const override { return "NIPS/CI"; }

  /// All three estimates in one pass over the bitmaps.
  CiEstimate Estimate() const;

  /// Total itemsets currently held across all fringes (the §4.6 budget).
  size_t TrackedItemsets() const;

  /// Folds the batched ingest count and every bitmap's pending fringe
  /// events into the global metrics registry. Observe() stays atomic-free:
  /// it counts into a plain member and this drains it at read boundaries
  /// (Estimate / Serialize / MemoryBytes / TrackedItemsets all call it),
  /// so any snapshot taken after an estimate is exact. Despite being
  /// const, this — and therefore every read accessor above — mutates
  /// unsynchronized bookkeeping, so like any other member it needs the
  /// caller's exclusive access to the estimator.
  void FlushMetrics() const;

  /// Folds another node's ensemble into this one. Both must be configured
  /// identically — same conditions, bitmap count/options, hash kind and
  /// seed — so their bitmaps are hash-compatible. This is the distributed
  /// aggregation path (§1-2): edge nodes stream locally, ship kilobyte
  /// summaries, and an aggregator merges them into the statistics of the
  /// combined traffic (see examples/hierarchy.cc for the DDoS
  /// first-hop/last-hop scenario).
  Status Merge(const NipsCi& other);

  /// Wire format for shipping the sketch between nodes. Raw payload, no
  /// envelope — SerializeState wraps this in the self-describing snapshot
  /// envelope (util/serde.h) for durable use.
  std::string Serialize() const;
  static StatusOr<NipsCi> Deserialize(std::string_view bytes);

  /// Durable-state contract (core/estimator.h): Serialize/Deserialize/
  /// Merge behind the kNipsCi snapshot envelope. MergeFrom accepts a
  /// hash-compatible NipsCi and refuses any other kind.
  StatusOr<std::string> SerializeState() const override;
  Status RestoreState(std::string_view snapshot) override;
  Status MergeFrom(const ImplicationEstimator& other) override;

  // --- Delta shipping (src/delta/) ---------------------------------------
  //
  // NoteSnapshotEpoch(E) records every bitmap's change clock as the
  // baseline a receiver of the epoch-E full snapshot holds; a later
  // SerializeDelta(E, E') ships only the bitmaps (and within them, only
  // the fringe cells and itemsets) that moved since, then records E' as
  // a fresh baseline. Baselines survive observes but not Merge or
  // RestoreState — both invalidate the stamp bookkeeping, so they drop
  // every mark and the next delta request resyncs with a full snapshot
  // (SerializeDelta → NotFound). At most kMaxDeltaMarks baselines are
  // remembered; older ones also resync.

  StatusOr<std::string> SerializeDelta(uint64_t since_epoch,
                                       uint64_t current_epoch) const override;
  Status ApplyDelta(std::string_view fragment) override;
  void NoteSnapshotEpoch(uint64_t epoch) const override;

  int num_bitmaps() const { return static_cast<int>(bitmaps_.size()); }
  const Nips& bitmap(int i) const { return bitmaps_[i]; }
  const ImplicationConditions& conditions() const { return conditions_; }

 private:
  // One remembered delta baseline: the per-bitmap change clocks at the
  // moment the epoch's full snapshot (or delta) was served.
  struct DeltaMark {
    uint64_t epoch;
    std::vector<uint64_t> clocks;
  };
  static constexpr size_t kMaxDeltaMarks = 8;

  // NoteSnapshotEpoch/SerializeDelta are const in the estimator contract
  // (serving a snapshot is logically read-only); the mark bookkeeping is
  // their mutable side effect, same discipline as FlushMetrics.
  void RecordDeltaMark(uint64_t epoch);
  const DeltaMark* FindDeltaMark(uint64_t epoch) const;

  // Where a key lands: which bitmap of the ensemble (the §4.5 stochastic-
  // averaging routing bits) and which cell of that bitmap (p() of the
  // remaining bits).
  struct Route {
    uint32_t bitmap;
    int32_t cell;
  };
  Route RouteOf(ItemsetKey a) const {
    uint64_t h = hasher_->Hash(a);
    return Route{static_cast<uint32_t>(h & (bitmaps_.size() - 1)),
                 static_cast<int32_t>(RhoLsb(h >> route_bits_))};
  }

  void ObserveImpl(ItemsetKey a, ItemsetKey b);
  // Cold 1-in-1024 path: flushes the batched tuple count and times the
  // observe. Outlined (and kept out of Observe) so the hot path keeps a
  // single ObserveImpl call site and inlines exactly like a metrics-off
  // build.
  void ObserveSampled(ItemsetKey a, ItemsetKey b);

  ImplicationConditions conditions_;
  NipsCiOptions options_;
  std::unique_ptr<Hasher64> hasher_;
  std::vector<Nips> bitmaps_;
  // Exact ingest count, kept as (completed windows, countdown within the
  // window) so the per-tuple cost is a single decrement-and-test of a hot
  // member — no atomics, no registry. ObserveSampled refills the window;
  // ObserveCalls() reconstructs the exact total; FlushMetrics pushes the
  // delta into the registry at read boundaries (mutable: flushing from
  // const readers is a bookkeeping side effect).
  uint64_t ObserveCalls() const {
    return observe_count_base_ +
           (obs::kLatencySampleMask + 1 - sample_countdown_);
  }

  int route_bits_;
  uint64_t sample_countdown_ = obs::kLatencySampleMask + 1;
  uint64_t observe_count_base_ = 0;
  mutable uint64_t observe_flushed_ = 0;
  mutable std::deque<DeltaMark> delta_marks_;
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_NIPS_CI_ENSEMBLE_H_
