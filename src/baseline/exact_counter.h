// Exact implication counting with hash tables.
//
// The ground truth the paper compares against for the real-data
// experiments (§6.2: "we used an exact method based on hash tables").
// Memory grows with the number of distinct itemsets of A — exactly the
// cost the constrained-environment algorithms avoid — so this is a test
// oracle and offline tool, not a router-grade estimator.

#ifndef IMPLISTAT_BASELINE_EXACT_COUNTER_H_
#define IMPLISTAT_BASELINE_EXACT_COUNTER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/conditions.h"
#include "core/estimator.h"

namespace implistat {

class ExactImplicationCounter final : public ImplicationEstimator {
 public:
  explicit ExactImplicationCounter(ImplicationConditions conditions);

  void Observe(ItemsetKey a, ItemsetKey b) override;

  double EstimateImplicationCount() const override {
    return static_cast<double>(ImplicationCount());
  }
  double EstimateNonImplicationCount() const override {
    return static_cast<double>(NonImplicationCount());
  }
  double EstimateSupportedDistinct() const override {
    return static_cast<double>(SupportedDistinct());
  }
  double EstimateStdError() const override { return 0.0; }  // exact
  double EstimateNonImplicationStdError() const override { return 0.0; }
  size_t MemoryBytes() const override;
  std::string name() const override { return "Exact"; }

  /// S: itemsets that meet the minimum support and were never dirty.
  uint64_t ImplicationCount() const { return supported_ - dirty_; }
  /// ~S: supported itemsets that violated a condition at some point.
  uint64_t NonImplicationCount() const { return dirty_; }
  /// F0_sup(A).
  uint64_t SupportedDistinct() const { return supported_; }
  /// F0(A): all distinct itemsets of A, regardless of support.
  uint64_t DistinctA() const { return items_.size(); }
  uint64_t tuples_seen() const { return tuples_; }

  const ImplicationConditions& conditions() const { return conditions_; }

  /// Durable-state contract (core/estimator.h): the full hash table —
  /// every itemset's state machine — round-trips, so a restored counter
  /// answers identically on any stream suffix. MergeFrom folds another
  /// exact counter's table in (distributed ground truth).
  StatusOr<std::string> SerializeState() const override;
  Status RestoreState(std::string_view snapshot) override;
  Status MergeFrom(const ImplicationEstimator& other) override;

  /// Direct merge of another exact counter with the same conditions.
  Status Merge(const ExactImplicationCounter& other);

  /// Buckets in the underlying hash table; exposed so tests can assert
  /// the MemoryBytes accounting covers the bucket array.
  size_t HashBucketCount() const { return items_.bucket_count(); }

 private:
  ImplicationConditions conditions_;
  std::unordered_map<ItemsetKey, ItemsetState> items_;
  uint64_t supported_ = 0;
  uint64_t dirty_ = 0;
  uint64_t tuples_ = 0;
};

}  // namespace implistat

#endif  // IMPLISTAT_BASELINE_EXACT_COUNTER_H_
