// Instrumentation decorator over the shared ImplicationEstimator
// interface — the one place where NIPS/CI, the exact counter, DS, ILC and
// ISS get comparable ingest metrics, labelled by estimator name:
//
//   implistat_estimator_observe_total{estimator="ILC"}
//   implistat_estimator_observe_latency_ns{estimator="ILC"}  (sampled)
//
// QueryEngine wraps every estimator it builds (MaybeInstrument), so any
// query run — CLI, benches, examples — feeds the same families. A
// metrics-disabled build returns the estimator unwrapped: not even the
// extra virtual hop survives.
//
// Header-only: depends only on the core interface header, so obs stays a
// leaf library.

#ifndef IMPLISTAT_OBS_INSTRUMENTED_ESTIMATOR_H_
#define IMPLISTAT_OBS_INSTRUMENTED_ESTIMATOR_H_

#include <memory>
#include <string>
#include <utility>

#include "core/estimator.h"
#include "obs/metrics.h"

namespace implistat::obs {

class InstrumentedEstimator final : public ImplicationEstimator {
 public:
  explicit InstrumentedEstimator(std::unique_ptr<ImplicationEstimator> inner)
      : inner_(std::move(inner)),
        observes_(MetricsRegistry::Global().GetCounter(
            "implistat_estimator_observe_total",
            "Stream elements fed to this estimator via Observe()",
            "estimator", inner_->name())),
        latency_(MetricsRegistry::Global().GetHistogram(
            "implistat_estimator_observe_latency_ns",
            "Sampled per-element Observe() latency in nanoseconds "
            "(1 in 1024 calls timed)",
            "estimator", inner_->name())) {}

  // The hot path counts into a plain member; the shared counter only sees
  // bulk Increments on sampling boundaries and at the estimate/memory
  // read boundaries below, mirroring NipsCi::FlushMetrics.
  void Observe(ItemsetKey a, ItemsetKey b) override {
    if ((++calls_ & kLatencySampleMask) == 0) [[unlikely]] {
      Flush();
      ScopedTimer timer(latency_);
      inner_->Observe(a, b);
      return;
    }
    inner_->Observe(a, b);
  }

  // Batch-fed elements are bulk-counted (no per-element sampling); the
  // count reaches the shared counter at the next read boundary.
  void ObserveBatch(std::span<const ItemsetPair> batch) override {
    calls_ += batch.size();
    inner_->ObserveBatch(batch);
  }

  double EstimateImplicationCount() const override {
    Flush();
    return inner_->EstimateImplicationCount();
  }
  double EstimateNonImplicationCount() const override {
    Flush();
    return inner_->EstimateNonImplicationCount();
  }
  double EstimateSupportedDistinct() const override {
    Flush();
    return inner_->EstimateSupportedDistinct();
  }
  double EstimateStdError() const override {
    Flush();
    return inner_->EstimateStdError();
  }
  double EstimateNonImplicationStdError() const override {
    Flush();
    return inner_->EstimateNonImplicationStdError();
  }
  size_t MemoryBytes() const override {
    Flush();
    return inner_->MemoryBytes();
  }
  std::string name() const override { return inner_->name(); }

  // Durable state passes straight through to the wrapped estimator: the
  // decorator's counters are observability, not state. A snapshot taken
  // through the wrapper restores into a bare estimator and vice versa.
  StatusOr<std::string> SerializeState() const override {
    Flush();
    return inner_->SerializeState();
  }
  Status RestoreState(std::string_view snapshot) override {
    return inner_->RestoreState(snapshot);
  }
  Status MergeFrom(const ImplicationEstimator& other) override {
    // Unwrap the other side too, so wrapper-to-wrapper merges hit the
    // concrete estimators' fast paths instead of the wire fallback.
    if (const auto* wrapped =
            dynamic_cast<const InstrumentedEstimator*>(&other)) {
      return inner_->MergeFrom(*wrapped->inner());
    }
    return inner_->MergeFrom(other);
  }

  // Delta shipping passes through like the other durable-state calls: a
  // patch produced through the wrapper applies to a bare estimator and
  // vice versa (the fragment carries no decorator state).
  StatusOr<std::string> SerializeDelta(uint64_t since_epoch,
                                       uint64_t current_epoch) const override {
    Flush();
    return inner_->SerializeDelta(since_epoch, current_epoch);
  }
  Status ApplyDelta(std::string_view fragment) override {
    return inner_->ApplyDelta(fragment);
  }
  void NoteSnapshotEpoch(uint64_t epoch) const override {
    inner_->NoteSnapshotEpoch(epoch);
  }

  const ImplicationEstimator* inner() const { return inner_.get(); }
  ImplicationEstimator* inner() { return inner_.get(); }

 private:
  void Flush() const {
    if (calls_ != flushed_) {
      observes_->Increment(calls_ - flushed_);
      flushed_ = calls_;
    }
  }

  std::unique_ptr<ImplicationEstimator> inner_;
  Counter* observes_;
  Histogram* latency_;
  uint64_t calls_ = 0;
  mutable uint64_t flushed_ = 0;
};

/// Wraps when metrics are compiled in; identity otherwise.
inline std::unique_ptr<ImplicationEstimator> MaybeInstrument(
    std::unique_ptr<ImplicationEstimator> estimator) {
  if constexpr (kMetricsEnabled) {
    return std::make_unique<InstrumentedEstimator>(std::move(estimator));
  } else {
    return estimator;
  }
}

/// Sees through the decorator (for readouts that need the concrete type,
/// e.g. TrackedItemsets on NipsCi).
inline const ImplicationEstimator* Unwrap(const ImplicationEstimator* est) {
  if (const auto* wrapped = dynamic_cast<const InstrumentedEstimator*>(est)) {
    return wrapped->inner();
  }
  return est;
}

}  // namespace implistat::obs

#endif  // IMPLISTAT_OBS_INSTRUMENTED_ESTIMATOR_H_
