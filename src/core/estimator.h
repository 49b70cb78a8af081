// Common interface for implication-count estimators.
//
// Implementations: the paper's NIPS/CI (core/nips_ci_ensemble.h), the exact
// hash-table counter, Distinct Sampling, Implication Lossy Counting and
// Implication Sticky Sampling (src/baseline). All consume a stream of
// (a, b) itemset pairs produced by projecting tuples (see query/engine.h
// for the end-to-end path) and estimate the cardinality S of
// { a : a → B } under shared ImplicationConditions.

#ifndef IMPLISTAT_CORE_ESTIMATOR_H_
#define IMPLISTAT_CORE_ESTIMATOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "stream/itemset.h"
#include "util/status.h"
#include "util/status_or.h"

namespace implistat {

/// One stream element: the packed projections of a tuple on A and B.
struct ItemsetPair {
  ItemsetKey a;
  ItemsetKey b;
};

class ImplicationEstimator {
 public:
  virtual ~ImplicationEstimator() = default;

  /// Feeds one stream element: itemset `a` of A appeared with itemset `b`
  /// of B in a tuple.
  virtual void Observe(ItemsetKey a, ItemsetKey b) = 0;

  /// Feeds a batch of stream elements; semantically identical to calling
  /// Observe on each element in order. Estimators override this to
  /// amortize dispatch across the batch (one virtual call instead of
  /// `batch.size()`, hashes precomputed, target cells prefetched — see
  /// NipsCi::ObserveBatch); the default simply loops.
  virtual void ObserveBatch(std::span<const ItemsetPair> batch) {
    for (const ItemsetPair& p : batch) Observe(p.a, p.b);
  }

  /// Estimate of the implication count S = |{a : a → B}|.
  virtual double EstimateImplicationCount() const = 0;

  /// Estimate of the non-implication count ~S (supported itemsets that
  /// violate a condition). Negative when the estimator cannot answer.
  virtual double EstimateNonImplicationCount() const { return -1.0; }

  /// 1σ error bar on EstimateImplicationCount, when the estimator can
  /// quantify its own uncertainty (NIPS/CI answers with a
  /// leave-one-bitmap-out jackknife, the exact counter with 0). Negative
  /// when unknown — the default for the sampling baselines.
  virtual double EstimateStdError() const { return -1.0; }

  /// 1σ error bar on EstimateNonImplicationCount, under the same
  /// conventions as EstimateStdError: what a complement (~S) answer
  /// carries. Negative when unknown.
  virtual double EstimateNonImplicationStdError() const { return -1.0; }

  /// Estimate of F0_sup(A): distinct itemsets meeting the minimum support.
  /// Negative when the estimator cannot answer.
  virtual double EstimateSupportedDistinct() const { return -1.0; }

  /// Approximate memory footprint in bytes.
  virtual size_t MemoryBytes() const = 0;

  virtual std::string name() const = 0;

  // --- Durable state -------------------------------------------------------
  //
  // The paper's distributed settings ship estimator *state*, not streams:
  // sensor nodes and routers snapshot their summaries, hand them up a
  // hierarchy, and merge them (§1-2, §5). These three methods are that
  // contract. Snapshots are self-describing envelopes (util/serde.h) —
  // versioned, kind-tagged, CRC-protected — so they can cross process
  // restarts, binary upgrades, and unreliable links.
  //
  // Defaults are honest Unimplemented errors rather than silent no-ops:
  // an estimator that cannot checkpoint must say so, not fake it.

  /// Serializes the full estimator state into a snapshot envelope.
  virtual StatusOr<std::string> SerializeState() const {
    return Status::Unimplemented(name() + ": SerializeState not supported");
  }

  /// Replaces this estimator's state with a snapshot produced by
  /// SerializeState on a compatible estimator. On failure the estimator
  /// is left exactly as it was (no partial mutation).
  virtual Status RestoreState(std::string_view snapshot) {
    (void)snapshot;
    return Status::Unimplemented(name() + ": RestoreState not supported");
  }

  /// Folds another estimator's state into this one, as if this estimator
  /// had also observed the other's stream. Implementations accept an
  /// `other` of the same class and compatible configuration, and refuse
  /// anything else. On failure this estimator is unchanged.
  virtual Status MergeFrom(const ImplicationEstimator& other) {
    (void)other;
    return Status::Unimplemented(name() + ": MergeFrom not supported");
  }

  // --- Delta state (src/delta/) -------------------------------------------
  //
  // A supervisor that already holds an edge's snapshot at epoch E does
  // not need the whole state again at epoch E' — only what changed in
  // between. Estimators that track dirtiness cheaply (NIPS/CI: fringe
  // cells touched since the last serve) implement the pair below; the
  // Unimplemented default makes full snapshots the fallback for every
  // other kind, decided per-pull by the server (net/server.cc).
  //
  // Epoch bookkeeping is the server's: NoteSnapshotEpoch(E) tells the
  // estimator "a full snapshot at epoch E was served" so a later
  // SerializeDelta(E, E') knows which baseline the receiver holds.
  // Implementations keep a bounded set of remembered baselines; a
  // SerializeDelta against a forgotten (or never-served) epoch returns
  // NotFound, which the server answers with a full snapshot instead —
  // the resync path, not an error.

  /// Serializes the changes between the remembered baseline at
  /// `since_epoch` and the current state as a kDeltaSnapshot payload
  /// fragment (the envelope is added by src/delta/). `current_epoch` is
  /// remembered as a new baseline for future deltas. NotFound when
  /// `since_epoch` is not a remembered baseline; Unimplemented when the
  /// kind has no cheap diff.
  virtual StatusOr<std::string> SerializeDelta(uint64_t since_epoch,
                                               uint64_t current_epoch) const {
    (void)since_epoch;
    (void)current_epoch;
    return Status::Unimplemented(name() + ": SerializeDelta not supported");
  }

  /// Applies a delta fragment produced by SerializeDelta on an estimator
  /// whose state at `since_epoch` was byte-identical to this one's. On
  /// failure this estimator is left exactly as it was (decode into
  /// temporaries, validate, then mutate — same contract as
  /// RestoreState). After a successful apply, SerializeState here equals
  /// SerializeState on the sender.
  virtual Status ApplyDelta(std::string_view fragment) {
    (void)fragment;
    return Status::Unimplemented(name() + ": ApplyDelta not supported");
  }

  /// Notes that a full snapshot of the current state was served at
  /// `epoch`, establishing a delta baseline. Const because serving a
  /// snapshot is logically read-only; the baseline bookkeeping is
  /// mutable metadata. Default: no-op (kinds without deltas).
  virtual void NoteSnapshotEpoch(uint64_t epoch) const { (void)epoch; }
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_ESTIMATOR_H_
