#include "baseline/distinct_sampling.h"

#include <cmath>
#include <vector>

#include "util/bits.h"
#include "util/logging.h"

namespace implistat {

DistinctSampling::DistinctSampling(ImplicationConditions conditions,
                                   DistinctSamplingOptions options)
    : conditions_(conditions),
      options_(options),
      hasher_(MakeHasher(options.hash_kind, options.seed)) {
  IMPLISTAT_CHECK(conditions_.Validate().ok()) << "invalid conditions";
  IMPLISTAT_CHECK(options_.max_sample_entries >= 1);
}

void DistinctSampling::Observe(ItemsetKey a, ItemsetKey b) {
  int item_level = RhoLsb(hasher_->Hash(a));
  if (item_level < level_) return;  // not (or no longer) in the sample
  // Per-value detail is bounded by t (Table 5): unlimited tracking only
  // when t exceeds the K counters the conditions need anyway.
  ItemsetState& state =
      sample_
          .try_emplace(a, options_.per_value_bound >
                              conditions_.max_multiplicity)
          .first->second;
  state.Observe(b, conditions_);
  while (sample_.size() > options_.max_sample_entries && level_ < 63) {
    RaiseLevel();
  }
}

void DistinctSampling::RaiseLevel() {
  ++level_;
  for (auto it = sample_.begin(); it != sample_.end();) {
    if (RhoLsb(hasher_->Hash(it->first)) < level_) {
      it = sample_.erase(it);
    } else {
      ++it;
    }
  }
}

double DistinctSampling::ScaleFactor() const {
  return std::pow(2.0, level_);
}

double DistinctSampling::EstimateImplicationCount() const {
  uint64_t qualifying = 0;
  for (const auto& [key, state] : sample_) {
    if (state.supported(conditions_) && !state.dirty()) ++qualifying;
  }
  return static_cast<double>(qualifying) * ScaleFactor();
}

double DistinctSampling::EstimateNonImplicationCount() const {
  uint64_t dirty = 0;
  for (const auto& [key, state] : sample_) {
    if (state.dirty()) ++dirty;
  }
  return static_cast<double>(dirty) * ScaleFactor();
}

double DistinctSampling::EstimateSupportedDistinct() const {
  uint64_t supported = 0;
  for (const auto& [key, state] : sample_) {
    if (state.supported(conditions_)) ++supported;
  }
  return static_cast<double>(supported) * ScaleFactor();
}

double DistinctSampling::AverageMultiplicity() const {
  uint64_t qualifying = 0;
  uint64_t total_multiplicity = 0;
  for (const auto& [key, state] : sample_) {
    if (state.supported(conditions_) && !state.dirty()) {
      ++qualifying;
      total_multiplicity += state.multiplicity();
    }
  }
  return qualifying == 0 ? 0.0
                         : static_cast<double>(total_multiplicity) /
                               static_cast<double>(qualifying);
}

size_t DistinctSampling::MemoryBytes() const {
  size_t bytes = sizeof(*this) + sample_.bucket_count() * sizeof(void*);
  for (const auto& [key, state] : sample_) {
    bytes += sizeof(key) + state.MemoryBytes() + 2 * sizeof(void*);
  }
  return bytes;
}

StatusOr<std::string> DistinctSampling::SerializeState() const {
  ByteWriter out;
  conditions_.SerializeTo(&out);
  out.PutVarint64(options_.max_sample_entries);
  out.PutVarint64(options_.per_value_bound);
  out.PutU8(static_cast<uint8_t>(options_.hash_kind));
  out.PutU64(options_.seed);
  out.PutVarint64(static_cast<uint64_t>(level_));
  out.PutVarint64(sample_.size());
  for (const auto& [key, state] : sample_) {
    out.PutU64(key);
    state.SerializeTo(&out);
  }
  return WrapSnapshot(SnapshotKind::kDistinctSampling, out.Release());
}

Status DistinctSampling::RestoreState(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(snapshot, SnapshotKind::kDistinctSampling));
  ByteReader in(payload);
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions conditions,
                             ImplicationConditions::Deserialize(&in));
  DistinctSamplingOptions options;
  uint64_t max_entries, per_value_bound;
  uint8_t hash_kind;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&max_entries));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&per_value_bound));
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&hash_kind));
  IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&options.seed));
  if (max_entries < 1 || max_entries > (uint64_t{1} << 32)) {
    return Status::InvalidArgument("DS: bad sample budget");
  }
  if (hash_kind > static_cast<uint8_t>(HashKind::kLinearGf2)) {
    return Status::InvalidArgument("DS: bad hash kind");
  }
  options.max_sample_entries = static_cast<size_t>(max_entries);
  options.per_value_bound = static_cast<size_t>(per_value_bound);
  options.hash_kind = static_cast<HashKind>(hash_kind);
  uint64_t level;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&level));
  if (level > 63) return Status::InvalidArgument("DS: bad sampling level");
  uint64_t num_entries;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_entries));
  if (num_entries > in.remaining() / 9 + 1) {
    return Status::InvalidArgument("DS: implausible sample size");
  }
  std::unique_ptr<Hasher64> hasher =
      MakeHasher(options.hash_kind, options.seed);
  std::unordered_map<ItemsetKey, ItemsetState> sample;
  sample.reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&key));
    IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                               ItemsetState::Deserialize(&in));
    // Sample invariant: only itemsets at or above the sampling level are
    // retained; an entry below it marks a corrupt or forged snapshot.
    if (RhoLsb(hasher->Hash(key)) < static_cast<int>(level)) {
      return Status::InvalidArgument("DS: sample entry below level");
    }
    if (!sample.emplace(key, std::move(state)).second) {
      return Status::InvalidArgument("DS: duplicate sample key");
    }
  }
  if (!in.AtEnd()) return Status::InvalidArgument("DS: trailing bytes");
  conditions_ = conditions;
  options_ = options;
  hasher_ = std::move(hasher);
  sample_ = std::move(sample);
  level_ = static_cast<int>(level);
  return Status::OK();
}

Status DistinctSampling::Merge(const DistinctSampling& other) {
  if (!(conditions_ == other.conditions_)) {
    return Status::InvalidArgument("DS::Merge: conditions differ");
  }
  if (options_.hash_kind != other.options_.hash_kind ||
      options_.seed != other.options_.seed ||
      options_.max_sample_entries != other.options_.max_sample_entries ||
      options_.per_value_bound != other.options_.per_value_bound) {
    return Status::InvalidArgument("DS::Merge: samples are not compatible");
  }
  // Union at the coarser of the two levels, then shrink to the budget.
  // Both samples used the same hash, so "level(a) >= l" agrees across
  // nodes and the union is exactly the sample a single node would hold.
  if (other.level_ > level_) {
    level_ = other.level_;
    RaiseLevel();
  }
  for (const auto& [key, state] : other.sample_) {
    if (RhoLsb(hasher_->Hash(key)) < level_) continue;
    auto [it, inserted] = sample_.try_emplace(
        key, options_.per_value_bound > conditions_.max_multiplicity);
    if (inserted) {
      it->second = state;
    } else {
      it->second.Merge(state, conditions_);
    }
  }
  while (sample_.size() > options_.max_sample_entries && level_ < 63) {
    RaiseLevel();
  }
  return Status::OK();
}

Status DistinctSampling::MergeFrom(const ImplicationEstimator& other) {
  if (const auto* ds = dynamic_cast<const DistinctSampling*>(&other)) {
    return Merge(*ds);
  }
  return Status::InvalidArgument(name() + ": cannot merge " + other.name() +
                                 " state");
}

}  // namespace implistat
