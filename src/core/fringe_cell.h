// One undecided cell of the NIPS bitmap (§4.3.4).
//
// A fringe cell tracks every itemset a hashed into it together with the
// itemsets of B each appears with, so the cell can be assigned the value 1
// the moment one tracked itemset becomes a known non-implication.
//
// The itemsets live in one array sorted by key. Key order is the canonical
// order of every serialized form, so writers walk storage and merges walk
// two sorted runs; a bounded cell holds at most its bitmap's budget
// (30 itemsets at F = 4), so an insert moves few entries.

#ifndef IMPLISTAT_CORE_FRINGE_CELL_H_
#define IMPLISTAT_CORE_FRINGE_CELL_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/conditions.h"
#include "stream/itemset.h"

namespace implistat {

/// Folds this thread's pending §3.1.1 dirty-exclusion counts into the
/// global metrics registry (no-op when metrics are compiled out). The
/// hot path only bumps a thread-local accumulator; Nips::FlushMetrics
/// calls this at every read boundary, so single-threaded pipelines see
/// exact counts in any snapshot taken after a read.
void FlushDirtyExclusionMetrics();

class FringeCell {
 public:
  enum class Outcome {
    kUndecided,        // no tracked itemset is a non-implication yet
    kNonImplication,   // `a` just became dirty: the cell's value is 1
  };

  FringeCell() = default;
  // Move-only: a copy holds the entries and pair lists without their spare
  // capacity, so the copy's running byte count would overstate it.
  FringeCell(const FringeCell&) = delete;
  FringeCell& operator=(const FringeCell&) = delete;
  FringeCell(FringeCell&&) = default;
  FringeCell& operator=(FringeCell&&) = default;

  /// Records one (a, b) occurrence. A non-zero `stamp` becomes a's change
  /// stamp (see the delta-shipping section below); 0 leaves it as it is.
  Outcome Observe(ItemsetKey a, ItemsetKey b,
                  const ImplicationConditions& cond, uint64_t stamp = 0);

  /// True when some tracked itemset meets the minimum support (drives the
  /// F0_sup scan of Algorithm 2 / §4.4).
  bool has_supported() const { return has_supported_; }

  /// Number of distinct itemsets a currently tracked (the fringe budget
  /// of §4.3.2 sums this across cells).
  size_t num_itemsets() const { return entries_.size(); }

  /// Folds another cell's tracked itemsets into this one (distributed
  /// aggregation). Returns kNonImplication if any merged itemset is a
  /// known non-implication, i.e. the merged cell's value must become 1.
  Outcome Merge(const FringeCell& other, const ImplicationConditions& cond);

  /// Heap and object bytes this cell holds, in O(1): the entry array is
  /// read off its capacity, and the one term it cannot give — the pair
  /// lists' heap blocks — is kept up to date by every mutation. Always
  /// equals RecountMemoryBytes().
  size_t MemoryBytes() const {
    return sizeof(*this) + entries_.capacity() * sizeof(Entry) +
           pair_heap_bytes_;
  }

  /// The same figure by walking every tracked itemset; for tests.
  size_t RecountMemoryBytes() const;

  void SerializeTo(ByteWriter* out) const;
  static StatusOr<FringeCell> Deserialize(ByteReader* in);

  // --- Delta shipping (src/delta/) ---------------------------------------
  //
  // The fringe is where NIPS state churns, but per poll interval only the
  // itemsets actually observed mutate — a small slice of a mature cell's
  // population. The owning Nips bitmap stamps each touched itemset with
  // its change clock (Observe's `stamp`); an item patch then ships
  // exactly the states whose stamp postdates the receiver's baseline, and
  // the receiver upserts them. Itemsets never leave a live cell (a settled
  // cell is shipped as a whole-cell event by the bitmap), so upserts plus
  // the shipped total count reconstruct the sender's cell byte-for-byte.

  /// Decoded form of one cell's item patch: the sender's has_supported
  /// flag, its total tracked-itemset count (a desync check), and the
  /// changed (key, state) pairs in canonical key order.
  struct ItemPatch {
    bool has_supported = false;
    uint64_t total_items = 0;
    std::vector<std::pair<ItemsetKey, ItemsetState>> items;
  };

  /// Serializes the item patch for every itemset stamped after
  /// `since_stamp`. Itemsets never stamped (untouched since tracking
  /// began) are never shipped — the receiver's baseline already has them.
  void SerializeItemPatchTo(uint64_t since_stamp, ByteWriter* out) const;

  static StatusOr<ItemPatch> DeserializeItemPatch(ByteReader* in);

  /// Number of patch keys not currently tracked here (the upsert inserts;
  /// validation: num_itemsets() + NewKeys == patch.total_items).
  size_t NewKeys(const ItemPatch& patch) const;

  /// Applies a validated patch. Infallible: replaces/inserts the shipped
  /// states (a replaced itemset keeps its stamp, an inserted one starts
  /// at 0) and adopts the sender's has_supported flag. Returns the change
  /// in num_itemsets() (always >= 0).
  size_t ApplyItemPatch(ItemPatch&& patch);

 private:
  struct Entry {
    ItemsetKey key;
    // Change stamp of the itemset's last mutation since the owning bitmap
    // enabled delta tracking; 0 = unchanged since tracking began.
    uint64_t stamp;
    ItemsetState state;
  };

  // First entry whose key is not below `a`.
  std::vector<Entry>::iterator Find(ItemsetKey a);

  // Grows entries_ to hold `n` entries. Capacity is always the power of
  // two at or above the entry count (0 when empty), however the cell got
  // its entries, so a restored or patched twin's entry array costs what
  // its original's does.
  void ReserveFor(size_t n);

  // Inserts the `added` elements of the ascending run `run` whose keys
  // (`key_of`) entries_ lacks, as `make_entry` builds them: one resize,
  // then one merge of the two runs into place from the back.
  template <typename Run, typename KeyOf, typename MakeEntry>
  void InsertMissing(Run& run, size_t added, KeyOf key_of,
                     MakeEntry make_entry);

  std::vector<Entry> entries_;  // ascending key order, keys unique
  // The flag and Σ pair-list heap bytes over entries_ share one word, so
  // the running count costs the cell no bytes and cannot overflow.
  uint64_t has_supported_ : 1 = 0;
  uint64_t pair_heap_bytes_ : 63 = 0;
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_FRINGE_CELL_H_
