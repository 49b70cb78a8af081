#include "query/synopsis_store.h"

#include <utility>

#include "obs/metrics.h"
#include "util/serde.h"

namespace implistat {

namespace {

struct StoreMetrics {
  obs::Counter* synopses_total;

  static const StoreMetrics& Get() {
    static const StoreMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return StoreMetrics{
          reg.GetCounter("implistat_synopses_total",
                         "Synopses (shared estimator instances) created"),
      };
    }();
    return metrics;
  }
};

}  // namespace

std::string CanonicalSynopsisKey(const AttributeSet& a_set,
                                 const AttributeSet& b_set,
                                 const Predicate* where,
                                 const ImplicationConditions& conditions,
                                 const EstimatorConfig& config) {
  // Lengths are prefixed so (a=[1], b=[2,3]) cannot collide with
  // (a=[1,2], b=[3]); the predicate's pre-order tree serialization and
  // the frozen config/conditions wire formats are canonical already.
  ByteWriter key;
  key.PutVarint64(static_cast<uint64_t>(a_set.size()));
  for (int index : a_set.indices()) {
    key.PutVarint64(static_cast<uint64_t>(index));
  }
  key.PutVarint64(static_cast<uint64_t>(b_set.size()));
  for (int index : b_set.indices()) {
    key.PutVarint64(static_cast<uint64_t>(index));
  }
  key.PutBool(where != nullptr);
  if (where != nullptr) where->SerializeTo(&key);
  conditions.SerializeTo(&key);
  config.SerializeTo(&key);
  return key.Release();
}

SynopsisId SynopsisStore::Find(const std::string& key) const {
  auto it = by_key_.find(key);
  if (it == by_key_.end()) return -1;
  return entries_[it->second].live() ? it->second : -1;
}

StatusOr<SynopsisId> SynopsisStore::Create(
    const AttributeSet& a_set, const AttributeSet& b_set,
    std::shared_ptr<const Predicate> where,
    const ImplicationConditions& conditions, const EstimatorConfig& config) {
  IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> estimator,
                             MakeEstimator(conditions, config));
  SynopsisEntry entry{
      CanonicalSynopsisKey(a_set, b_set, where.get(), conditions, config),
      a_set,
      b_set,
      ItemsetPacker(*schema_, a_set),
      ItemsetPacker(*schema_, b_set),
      std::move(where),
      conditions,
      config,
      std::move(estimator),
      0,
  };
  const SynopsisId id = static_cast<SynopsisId>(entries_.size());
  // First live claim wins the Find slot; duplicates (a restored
  // dedicated-layout checkpoint) stay addressable by id only until
  // Release hands them the slot.
  by_key_.emplace(entry.key, id);
  entries_.push_back(std::move(entry));
  StoreMetrics::Get().synopses_total->Increment();
  return id;
}

SynopsisId SynopsisStore::CreateTombstone() {
  const AttributeSet empty{std::vector<int>{}};
  entries_.push_back(SynopsisEntry{std::string(), empty, empty,
                                   ItemsetPacker(*schema_, empty),
                                   ItemsetPacker(*schema_, empty), nullptr,
                                   ImplicationConditions{}, EstimatorConfig{},
                                   nullptr, 0});
  return static_cast<SynopsisId>(entries_.size()) - 1;
}

void SynopsisStore::AddRef(SynopsisId id) { ++entries_[id].refcount; }

void SynopsisStore::Release(SynopsisId id) {
  SynopsisEntry& entry = entries_[id];
  if (--entry.refcount > 0) return;
  entry.estimator.reset();  // the memory returns; the id stays a tombstone
  auto it = by_key_.find(entry.key);
  if (it == by_key_.end() || it->second != id) return;
  // A live duplicate of the key inherits the slot, lowest id first, so a
  // later key-identical registration still shares it.
  for (SynopsisId other = 0; other < size(); ++other) {
    if (entries_[other].live() && entries_[other].key == entry.key) {
      it->second = other;
      return;
    }
  }
  by_key_.erase(it);
}

int SynopsisStore::num_live() const {
  int live = 0;
  for (const SynopsisEntry& entry : entries_) {
    if (entry.live()) ++live;
  }
  return live;
}

uint64_t SynopsisStore::TotalMemoryBytes() const {
  uint64_t total = 0;
  for (const SynopsisEntry& entry : entries_) {
    if (entry.live()) total += entry.estimator->MemoryBytes();
  }
  return total;
}

void SynopsisStore::Clear() {
  entries_.clear();
  by_key_.clear();
}

}  // namespace implistat
