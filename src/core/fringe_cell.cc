#include "core/fringe_cell.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"

namespace implistat {

namespace {

// §3.1.1 monotone-dirty events, split by the violated condition. Handles
// are process-global and shared with nips.cc (same names → same counters);
// registration happens on first use or via RegisterNipsMetrics().
struct DirtyMetrics {
  obs::Counter* multiplicity;
  obs::Counter* confidence;

  static DirtyMetrics& Get() {
    static DirtyMetrics m{
        obs::MetricsRegistry::Global().GetCounter(
            "nips_dirty_exclusions_total",
            "Itemsets newly excluded as non-implications (section 3.1.1 "
            "monotone-dirty events), by violated condition",
            "condition", "multiplicity"),
        obs::MetricsRegistry::Global().GetCounter(
            "nips_dirty_exclusions_total",
            "Itemsets newly excluded as non-implications (section 3.1.1 "
            "monotone-dirty events), by violated condition",
            "condition", "confidence"),
    };
    return m;
  }
};

// Dirty transitions happen per itemset lifetime — frequent enough that an
// atomic RMW each would show up on the ingest path. They are counted with
// plain thread-local increments and folded into the shared counters by
// FlushDirtyExclusionMetrics() (called from Nips::FlushMetrics at read
// boundaries). Concurrent ingest threads each carry their own pending
// counts; a thread's remainder becomes visible at its next flush.
struct PendingDirty {
  uint64_t multiplicity = 0;
  uint64_t confidence = 0;
};
thread_local PendingDirty t_pending_dirty;

void CountDirtyExclusion(DirtyReason reason) {
  if (reason == DirtyReason::kMultiplicity) {
    ++t_pending_dirty.multiplicity;
  } else {
    ++t_pending_dirty.confidence;
  }
}

}  // namespace

void FlushDirtyExclusionMetrics() {
  if constexpr (obs::kMetricsEnabled) {
    DirtyMetrics& m = DirtyMetrics::Get();  // also pre-registers
    PendingDirty& p = t_pending_dirty;
    if (p.multiplicity != 0) {
      m.multiplicity->Increment(p.multiplicity);
      p.multiplicity = 0;
    }
    if (p.confidence != 0) {
      m.confidence->Increment(p.confidence);
      p.confidence = 0;
    }
  }
}

FringeCell::Outcome FringeCell::Observe(ItemsetKey a, ItemsetKey b,
                                        const ImplicationConditions& cond) {
  auto [it, inserted] = items_.try_emplace(a);
  ItemsetState& state = it->second;
  const size_t state_before = inserted ? 0 : state.MemoryBytes();
  bool was_dirty = state.dirty();
  bool dirty = state.Observe(b, cond);
  state_bytes_ += state.MemoryBytes() - state_before;
  if (state.supported(cond)) has_supported_ = true;
  if (dirty && !was_dirty) {
    IMPLISTAT_IF_METRICS(CountDirtyExclusion(state.dirty_reason()));
  }
  return dirty ? Outcome::kNonImplication : Outcome::kUndecided;
}

FringeCell::Outcome FringeCell::Merge(const FringeCell& other,
                                      const ImplicationConditions& cond) {
  Outcome outcome = Outcome::kUndecided;
  for (const auto& [key, other_state] : other.items_) {
    auto [it, inserted] = items_.try_emplace(key, other_state);
    if (inserted) {
      state_bytes_ += it->second.MemoryBytes();
    } else {
      // Count only exclusions the merge itself discovers; a dirty state
      // arriving from the other side was already counted where it turned
      // dirty (or predates this process — see DirtyReason).
      const size_t state_before = it->second.MemoryBytes();
      bool was_dirty = it->second.dirty();
      it->second.Merge(other_state, cond);
      state_bytes_ += it->second.MemoryBytes() - state_before;
      if (!was_dirty && it->second.dirty()) {
        IMPLISTAT_IF_METRICS(CountDirtyExclusion(it->second.dirty_reason()));
      }
    }
    if (it->second.dirty()) outcome = Outcome::kNonImplication;
    if (it->second.supported(cond)) has_supported_ = true;
  }
  if (other.has_supported_) has_supported_ = true;
  return outcome;
}

void FringeCell::SerializeTo(ByteWriter* out) const {
  out->PutBool(has_supported_);
  out->PutVarint64(items_.size());
  // Canonical order: the map iterates in insertion-history order, which a
  // restore cannot reproduce, so sort by key — two cells with the same
  // tracked itemsets serialize to the same bytes no matter how they got
  // there (live stream, merge, or an earlier restore).
  std::vector<ItemsetKey> keys;
  keys.reserve(items_.size());
  for (const auto& [key, state] : items_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (ItemsetKey key : keys) {
    out->PutU64(key);
    items_.at(key).SerializeTo(out);
  }
}

StatusOr<FringeCell> FringeCell::Deserialize(ByteReader* in) {
  FringeCell cell;
  bool has_supported;
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&has_supported));
  cell.has_supported_ = has_supported;
  uint64_t items;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&items));
  if (items > (uint64_t{1} << 28)) {
    return Status::InvalidArgument("FringeCell: implausible itemset count");
  }
  for (uint64_t i = 0; i < items; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&key));
    IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                               ItemsetState::Deserialize(in));
    auto [it, inserted] = cell.items_.emplace(key, std::move(state));
    if (inserted) cell.state_bytes_ += it->second.MemoryBytes();
  }
  return cell;
}

void FringeCell::SerializeItemPatchTo(uint64_t since_stamp,
                                      ByteWriter* out) const {
  out->PutBool(has_supported_);
  out->PutVarint64(items_.size());
  std::vector<ItemsetKey> changed;
  for (const auto& [key, stamp] : stamps_) {
    if (stamp > since_stamp) changed.push_back(key);
  }
  // Canonical key order, matching SerializeTo: the patch bytes for a
  // given change set are unique no matter the observation order.
  std::sort(changed.begin(), changed.end());
  out->PutVarint64(changed.size());
  for (ItemsetKey key : changed) {
    out->PutU64(key);
    items_.at(key).SerializeTo(out);
  }
}

StatusOr<FringeCell::ItemPatch> FringeCell::DeserializeItemPatch(
    ByteReader* in) {
  ItemPatch patch;
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&patch.has_supported));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&patch.total_items));
  if (patch.total_items > (uint64_t{1} << 28)) {
    return Status::InvalidArgument("ItemPatch: implausible itemset count");
  }
  uint64_t changed;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&changed));
  if (changed > patch.total_items) {
    return Status::InvalidArgument("ItemPatch: more changes than itemsets");
  }
  ItemsetKey prev = 0;
  for (uint64_t i = 0; i < changed; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&key));
    if (i > 0 && key <= prev) {
      return Status::InvalidArgument("ItemPatch: keys out of order");
    }
    prev = key;
    IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                               ItemsetState::Deserialize(in));
    patch.items.emplace_back(key, std::move(state));
  }
  return patch;
}

size_t FringeCell::NewKeys(const ItemPatch& patch) const {
  size_t inserts = 0;
  for (const auto& [key, state] : patch.items) {
    if (items_.find(key) == items_.end()) ++inserts;
  }
  return inserts;
}

size_t FringeCell::ApplyItemPatch(ItemPatch&& patch) {
  const size_t before = items_.size();
  for (auto& [key, state] : patch.items) {
    auto [it, inserted] = items_.try_emplace(key);
    const size_t state_before = inserted ? 0 : it->second.MemoryBytes();
    it->second = std::move(state);
    state_bytes_ += it->second.MemoryBytes() - state_before;
  }
  has_supported_ = patch.has_supported;
  return items_.size() - before;
}

size_t FringeCell::RecountMemoryBytes() const {
  // The map's bucket array is real heap the fringe budget must answer for
  // (§4.6 is a memory claim); it used to be omitted, undercounting every
  // populated cell by bucket_count * sizeof(pointer).
  size_t bytes = sizeof(*this) + items_.bucket_count() * sizeof(void*);
  for (const auto& [key, state] : items_) {
    bytes += sizeof(key) + state.MemoryBytes() +
             2 * sizeof(void*);  // hash-table node overhead, approximately
  }
  // Delta-tracking stamps (one u64 per itemset touched since tracking
  // began; empty unless the owning bitmap serves deltas).
  bytes += stamps_.bucket_count() * sizeof(void*) +
           stamps_.size() * (sizeof(ItemsetKey) + sizeof(uint64_t) +
                             2 * sizeof(void*));
  return bytes;
}

}  // namespace implistat
