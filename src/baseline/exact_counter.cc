#include "baseline/exact_counter.h"

#include "util/logging.h"

namespace implistat {

ExactImplicationCounter::ExactImplicationCounter(
    ImplicationConditions conditions)
    : conditions_(conditions) {
  IMPLISTAT_CHECK(conditions_.Validate().ok()) << "invalid conditions";
}

void ExactImplicationCounter::Observe(ItemsetKey a, ItemsetKey b) {
  ++tuples_;
  // Unlimited pair tracking: the ground truth evaluates the conditions on
  // exact counts, not on a K-bounded summary.
  ItemsetState& state =
      items_.try_emplace(a, /*unlimited_tracking=*/true).first->second;
  bool was_supported = state.supported(conditions_);
  bool was_dirty = state.dirty();
  state.Observe(b, conditions_);
  if (!was_supported && state.supported(conditions_)) ++supported_;
  if (!was_dirty && state.dirty()) ++dirty_;
}

size_t ExactImplicationCounter::MemoryBytes() const {
  // Bucket array + per-node overhead + the states themselves (the same
  // accounting FringeCell::MemoryBytes uses for its table).
  size_t bytes = sizeof(*this) + items_.bucket_count() * sizeof(void*);
  for (const auto& [key, state] : items_) {
    bytes += sizeof(key) + state.MemoryBytes() + 2 * sizeof(void*);
  }
  return bytes;
}

StatusOr<std::string> ExactImplicationCounter::SerializeState() const {
  ByteWriter out;
  conditions_.SerializeTo(&out);
  out.PutVarint64(tuples_);
  out.PutVarint64(items_.size());
  for (const auto& [key, state] : items_) {
    out.PutU64(key);
    state.SerializeTo(&out);
  }
  return WrapSnapshot(SnapshotKind::kExactCounter, out.Release());
}

Status ExactImplicationCounter::RestoreState(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(snapshot, SnapshotKind::kExactCounter));
  ByteReader in(payload);
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions conditions,
                             ImplicationConditions::Deserialize(&in));
  uint64_t tuples;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&tuples));
  uint64_t num_items;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_items));
  // Each entry is at least 9 bytes on the wire (u64 key + minimal state);
  // bound the count by the bytes present before reserving.
  if (num_items > in.remaining() / 9 + 1) {
    return Status::InvalidArgument("ExactCounter: implausible item count");
  }
  // Decode into a temporary table; *this is untouched until the whole
  // snapshot has validated.
  std::unordered_map<ItemsetKey, ItemsetState> items;
  items.reserve(num_items);
  uint64_t supported = 0;
  uint64_t dirty = 0;
  for (uint64_t i = 0; i < num_items; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&key));
    IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                               ItemsetState::Deserialize(&in));
    if (state.supported(conditions)) ++supported;
    if (state.dirty()) ++dirty;
    if (!items.emplace(key, std::move(state)).second) {
      return Status::InvalidArgument("ExactCounter: duplicate itemset key");
    }
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("ExactCounter: trailing bytes");
  }
  conditions_ = conditions;
  items_ = std::move(items);
  supported_ = supported;
  dirty_ = dirty;
  tuples_ = tuples;
  return Status::OK();
}

Status ExactImplicationCounter::Merge(const ExactImplicationCounter& other) {
  if (!(conditions_ == other.conditions_)) {
    return Status::InvalidArgument("ExactCounter::Merge: conditions differ");
  }
  for (const auto& [key, state] : other.items_) {
    auto [it, inserted] =
        items_.try_emplace(key, /*unlimited_tracking=*/true);
    if (inserted) {
      it->second = state;
    } else {
      it->second.Merge(state, conditions_);
    }
  }
  tuples_ += other.tuples_;
  // Supports add across nodes, so supported/dirty membership can change
  // for merged entries; recount rather than patch.
  supported_ = 0;
  dirty_ = 0;
  for (const auto& [key, state] : items_) {
    if (state.supported(conditions_)) ++supported_;
    if (state.dirty()) ++dirty_;
  }
  return Status::OK();
}

Status ExactImplicationCounter::MergeFrom(const ImplicationEstimator& other) {
  if (const auto* exact =
          dynamic_cast<const ExactImplicationCounter*>(&other)) {
    return Merge(*exact);
  }
  return Status::InvalidArgument(name() + ": cannot merge " + other.name() +
                                 " state");
}

}  // namespace implistat
