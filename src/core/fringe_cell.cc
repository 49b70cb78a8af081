#include "core/fringe_cell.h"

#include <algorithm>
#include <bit>
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

namespace {

// The pair list's heap block; the rest of a state's bytes are its Entry's.
size_t HeapBytes(const ItemsetState& state) {
  return state.MemoryBytes() - sizeof(ItemsetState);
}

// Smallest encoding of one cell entry: a u64 key and a state with support
// and pair count as 1-byte varints, a u32 multiplicity and three bools.
constexpr size_t kMinEntryBytes = 8 + 1 + 4 + 3 + 1;

}  // namespace

std::vector<FringeCell::Entry>::iterator FringeCell::Find(ItemsetKey a) {
  return std::lower_bound(
      entries_.begin(), entries_.end(), a,
      [](const Entry& e, ItemsetKey key) { return e.key < key; });
}

void FringeCell::ReserveFor(size_t n) {
  if (n > entries_.capacity()) entries_.reserve(std::bit_ceil(n));
}

template <typename Run, typename KeyOf, typename MakeEntry>
void FringeCell::InsertMissing(Run& run, size_t added, KeyOf key_of,
                               MakeEntry make_entry) {
  size_t i = entries_.size();  // end of the current run still to place
  ReserveFor(i + added);
  entries_.resize(i + added);
  size_t w = entries_.size();  // end of the slots still to fill
  size_t j = run.size();
  // w − i new keys remain to place, all in run[0, j).
  while (w > i) {
    const ItemsetKey key = key_of(run[j - 1]);
    if (i > 0 && entries_[i - 1].key >= key) {
      if (entries_[i - 1].key == key) --j;  // shared: folded already
      entries_[--w] = std::move(entries_[--i]);
    } else {
      entries_[--w] = make_entry(run[--j]);
      pair_heap_bytes_ += HeapBytes(entries_[w].state);
    }
  }
}

FringeCell::Outcome FringeCell::Observe(ItemsetKey a, ItemsetKey b,
                                        const ImplicationConditions& cond,
                                        uint64_t stamp) {
  auto it = Find(a);
  if (it == entries_.end() || it->key != a) {
    const size_t at = static_cast<size_t>(it - entries_.begin());
    ReserveFor(entries_.size() + 1);
    it = entries_.insert(entries_.begin() + at, Entry{a, 0, ItemsetState()});
  }
  if (stamp != 0) it->stamp = stamp;
  ItemsetState& state = it->state;
  const size_t state_before = state.MemoryBytes();
  bool was_dirty = state.dirty();
  bool dirty = state.Observe(b, cond);
  pair_heap_bytes_ += state.MemoryBytes() - state_before;
  if (state.supported(cond)) has_supported_ = true;
  if (dirty && !was_dirty) {
    IMPLISTAT_IF_METRICS(CountDirtyExclusion(state.dirty_reason()));
  }
  return dirty ? Outcome::kNonImplication : Outcome::kUndecided;
}

FringeCell::Outcome FringeCell::Merge(const FringeCell& other,
                                      const ImplicationConditions& cond) {
  Outcome outcome = Outcome::kUndecided;
  // Fold the shared keys in place and count the other side's new ones.
  size_t added = 0;
  auto mine = entries_.begin();
  for (const Entry& theirs : other.entries_) {
    while (mine != entries_.end() && mine->key < theirs.key) ++mine;
    const ItemsetState* merged = &theirs.state;
    if (mine == entries_.end() || mine->key != theirs.key) {
      ++added;
    } else {
      // Count only exclusions the merge itself discovers; a dirty state
      // arriving from the other side was already counted where it turned
      // dirty (or predates this process — see DirtyReason).
      ItemsetState& state = mine->state;
      const size_t state_before = state.MemoryBytes();
      bool was_dirty = state.dirty();
      state.Merge(theirs.state, cond);
      pair_heap_bytes_ += state.MemoryBytes() - state_before;
      if (!was_dirty && state.dirty()) {
        IMPLISTAT_IF_METRICS(CountDirtyExclusion(state.dirty_reason()));
      }
      merged = &state;
    }
    if (merged->dirty()) outcome = Outcome::kNonImplication;
    if (merged->supported(cond)) has_supported_ = true;
  }
  if (added > 0) {
    InsertMissing(
        other.entries_, added, [](const Entry& e) { return e.key; },
        [](const Entry& e) { return Entry{e.key, 0, e.state}; });
  }
  if (other.has_supported_) has_supported_ = true;
  return outcome;
}

void FringeCell::SerializeTo(ByteWriter* out) const {
  out->PutBool(has_supported_);
  out->PutVarint64(entries_.size());
  // Storage order is key order, the canonical order: two cells with the
  // same tracked itemsets serialize to the same bytes no matter how they
  // got there (live stream, merge, or an earlier restore).
  for (const Entry& e : entries_) {
    out->PutU64(e.key);
    e.state.SerializeTo(out);
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
  // A count the bytes present cannot hold is refused before the reserve.
  if (items > in->remaining() / kMinEntryBytes) {
    return Status::InvalidArgument("FringeCell: itemset count exceeds input");
  }
  cell.ReserveFor(items);
  for (uint64_t i = 0; i < items; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&key));
    // SerializeTo writes strictly ascending keys; anything else (a
    // duplicate included) is not a cell this library wrote.
    if (i > 0 && key <= cell.entries_.back().key) {
      return Status::InvalidArgument("FringeCell: keys out of order");
    }
    IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                               ItemsetState::Deserialize(in));
    cell.pair_heap_bytes_ += HeapBytes(state);
    cell.entries_.push_back(Entry{key, 0, std::move(state)});
  }
  return cell;
}

void FringeCell::SerializeItemPatchTo(uint64_t since_stamp,
                                      ByteWriter* out) const {
  out->PutBool(has_supported_);
  out->PutVarint64(entries_.size());
  // Key order, matching SerializeTo: the patch bytes for a given change
  // set are unique no matter the observation order.
  uint64_t changed = 0;
  for (const Entry& e : entries_) changed += e.stamp > since_stamp;
  out->PutVarint64(changed);
  for (const Entry& e : entries_) {
    if (e.stamp <= since_stamp) continue;
    out->PutU64(e.key);
    e.state.SerializeTo(out);
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
  auto mine = entries_.begin();
  for (const auto& [key, state] : patch.items) {
    while (mine != entries_.end() && mine->key < key) ++mine;
    if (mine == entries_.end() || mine->key != key) ++inserts;
  }
  return inserts;
}

size_t FringeCell::ApplyItemPatch(ItemPatch&& patch) {
  // Replace the shared keys' states in place (keeping their stamps) and
  // count the new ones; DeserializeItemPatch checked the key order.
  size_t added = 0;
  auto mine = entries_.begin();
  for (auto& [key, state] : patch.items) {
    while (mine != entries_.end() && mine->key < key) ++mine;
    if (mine == entries_.end() || mine->key != key) {
      ++added;
      continue;
    }
    pair_heap_bytes_ += HeapBytes(state);
    pair_heap_bytes_ -= HeapBytes(mine->state);
    mine->state = std::move(state);
  }
  if (added > 0) {
    InsertMissing(
        patch.items, added,
        [](const std::pair<ItemsetKey, ItemsetState>& p) { return p.first; },
        [](std::pair<ItemsetKey, ItemsetState>& p) {
          return Entry{p.first, 0, std::move(p.second)};
        });
  }
  has_supported_ = patch.has_supported;
  return added;
}

size_t FringeCell::RecountMemoryBytes() const {
  size_t bytes = sizeof(*this) + entries_.capacity() * sizeof(Entry);
  for (const Entry& e : entries_) bytes += HeapBytes(e.state);
  return bytes;
}

}  // namespace implistat
