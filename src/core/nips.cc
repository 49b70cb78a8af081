#include "core/nips.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "delta/codec.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace implistat {

namespace {

// Fringe traffic counters (§4.3.2/§4.3.3 made observable). The intended
// invariant, checked by tests/core_nips_test.cc: across live bitmaps, at
// any read boundary (a point where FlushMetrics has run),
//   insertions − evictions − promotions == Σ TrackedItemsets().
// The hot path never touches these atomics: settle events accumulate in
// Nips::totals_ with plain adds, insertions are derived from the same
// invariant, and FlushMetrics pushes bulk deltas at read boundaries.
struct NipsMetrics {
  obs::Counter* insertions;
  obs::Counter* evictions;
  obs::Counter* promotions;
  obs::Counter* settled_non_implication;
  obs::Counter* settled_budget;
  obs::Counter* settled_merge;

  static NipsMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static NipsMetrics m{
        reg.GetCounter("nips_fringe_insertions_total",
                       "Itemsets newly tracked in fringe cells (section "
                       "4.3.2 fringe population; includes merged and "
                       "deserialized itemsets)"),
        reg.GetCounter("nips_fringe_evictions_total",
                       "Tracked itemsets freed by the section 4.3.3 budget "
                       "fixation (cells forced to value 1 under memory "
                       "pressure)"),
        reg.GetCounter("nips_settled_promotions_total",
                       "Tracked itemsets freed because their cell settled "
                       "to value 1 through a discovered non-implication "
                       "or a merge"),
        reg.GetCounter("nips_cells_settled_total",
                       "Bitmap cells decided to value 1, by cause", "cause",
                       "non_implication"),
        reg.GetCounter("nips_cells_settled_total",
                       "Bitmap cells decided to value 1, by cause", "cause",
                       "budget"),
        reg.GetCounter("nips_cells_settled_total",
                       "Bitmap cells decided to value 1, by cause", "cause",
                       "merge"),
    };
    return m;
  }
};

}  // namespace

Nips::Nips(ImplicationConditions conditions, NipsOptions options)
    : conditions_(conditions),
      options_(options),
      cells_(static_cast<size_t>(options.bitmap_bits)) {
  IMPLISTAT_CHECK(options_.bitmap_bits >= 1 && options_.bitmap_bits <= 64)
      << "bitmap_bits out of range";
  IMPLISTAT_CHECK(conditions_.Validate().ok()) << "invalid conditions";
  // Pre-register the fringe and dirty-exclusion counters so snapshots
  // taken before any traffic still list them (at zero).
  IMPLISTAT_IF_METRICS(NipsMetrics::Get());
  FlushDirtyExclusionMetrics();
}

size_t Nips::TrackedItemsets() const {
  FlushMetrics();
  return tracked_;
}

void Nips::FlushMetrics() const {
  if constexpr (obs::kMetricsEnabled) {
    // Cumulative insertions are implied by the traffic invariant: every
    // itemset ever inserted is either still tracked or left through an
    // eviction/promotion. Deriving them here keeps ObserveAt free of any
    // metric bookkeeping at all.
    uint64_t insertions = tracked_ + totals_.evictions + totals_.promotions;
    const EventTotals& t = totals_;
    EventTotals& r = reported_;
    if (insertions != insertions_reported_ || t.evictions != r.evictions ||
        t.promotions != r.promotions ||
        t.settled_non_implication != r.settled_non_implication ||
        t.settled_budget != r.settled_budget ||
        t.settled_merge != r.settled_merge) {
      NipsMetrics& m = NipsMetrics::Get();
      m.insertions->Increment(insertions - insertions_reported_);
      m.evictions->Increment(t.evictions - r.evictions);
      m.promotions->Increment(t.promotions - r.promotions);
      m.settled_non_implication->Increment(t.settled_non_implication -
                                           r.settled_non_implication);
      m.settled_budget->Increment(t.settled_budget - r.settled_budget);
      m.settled_merge->Increment(t.settled_merge - r.settled_merge);
      insertions_reported_ = insertions;
      r = t;
    }
    FlushDirtyExclusionMetrics();
  }
}

size_t Nips::ItemBudget() const {
  if (!bounded() || options_.capacity_factor <= 0) return 0;
  int f = std::min(options_.fringe_size, 40);
  return static_cast<size_t>(options_.capacity_factor) *
         ((size_t{1} << f) - 1);
}

void Nips::ObserveAt(int cell, ItemsetKey a, ItemsetKey b) {
  IMPLISTAT_DCHECK(cell >= 0);
  // Hash positions beyond the bitmap land in the last cell; with L = 58
  // this affects ~2^-58 of the keys.
  if (cell >= options_.bitmap_bits) cell = options_.bitmap_bits - 1;

  if (cell > fringe_right_) {
    fringe_right_ = cell;
    // The serialized fringe header changed even if the cell observe below
    // turns out to be a no-op.
    if (delta_tracking_) ++clock_;
  }
  if (cell < fringe_left_) return;  // Zone-1: value already 1, recorded
  Cell& c = cells_[cell];
  if (c.one) return;  // recorded events are never erased

  const size_t bytes_before = c.data ? c.data->MemoryBytes() : 0;
  if (!c.data) c.data = std::make_unique<FringeCell>();
  size_t before = c.data->num_itemsets();
  // A fringe observe always mutates the tracked state (at minimum the
  // itemset's support count), so under delta tracking it stamps the
  // itemset and the cell. If the outcome settles the cell below,
  // DecideOne re-stamps it and frees the data (stamps included).
  const uint64_t stamp = delta_tracking_ ? ++clock_ : 0;
  FringeCell::Outcome outcome = c.data->Observe(a, b, conditions_, stamp);
  if (stamp != 0) c.stamp = stamp;
  size_t after = c.data->num_itemsets();
  tracked_ += after - before;  // an increase is an insertion; see FlushMetrics
  if (c.data->has_supported()) c.has_supported = true;
  fringe_bytes_ += c.data->MemoryBytes() - bytes_before;

  if (outcome == FringeCell::Outcome::kNonImplication) {
    DecideOne(cell, SettleCause::kNonImplication);
    ShrinkLeft();
  }
  EnforceBudget();
}

bool Nips::CellIsOne(int cell) const {
  if (cell < fringe_left_) return true;
  return cells_[cell].one;
}

int Nips::RNonImplication() const {
  int i = fringe_left_;
  while (i < options_.bitmap_bits && cells_[i].one) ++i;
  return i;
}

int Nips::RSupport() const {
  // §4.4: a fringe cell counts as (virtually) 1 for the F0_sup scan when
  // some itemset in it meets the minimum support; Zone-1 cells count by
  // definition.
  int i = fringe_left_;
  while (i < options_.bitmap_bits &&
         (cells_[i].one || cells_[i].has_supported)) {
    ++i;
  }
  return i;
}

Status Nips::Merge(const Nips& other) {
  if (!(conditions_ == other.conditions_)) {
    return Status::InvalidArgument("Nips::Merge: conditions differ");
  }
  if (options_.bitmap_bits != other.options_.bitmap_bits ||
      options_.fringe_size != other.options_.fringe_size ||
      options_.capacity_factor != other.options_.capacity_factor) {
    return Status::InvalidArgument("Nips::Merge: options differ");
  }
  if (other.fringe_right_ > fringe_right_) {
    fringe_right_ = other.fringe_right_;
  }
  for (int i = 0; i < options_.bitmap_bits; ++i) {
    Cell& mine = cells_[i];
    if (mine.one) continue;
    if (other.CellIsOne(i)) {
      DecideOne(i, SettleCause::kMerge);
      continue;
    }
    const Cell& theirs = other.cells_[i];
    if (theirs.has_supported) mine.has_supported = true;
    if (theirs.data == nullptr) continue;
    const size_t bytes_before = mine.data ? mine.data->MemoryBytes() : 0;
    if (mine.data == nullptr) mine.data = std::make_unique<FringeCell>();
    size_t before = mine.data->num_itemsets();
    FringeCell::Outcome outcome =
        mine.data->Merge(*theirs.data, conditions_);
    size_t after = mine.data->num_itemsets();
    tracked_ += after - before;
    fringe_bytes_ += mine.data->MemoryBytes() - bytes_before;
    if (mine.data->has_supported()) mine.has_supported = true;
    if (outcome == FringeCell::Outcome::kNonImplication) {
      DecideOne(i, SettleCause::kNonImplication);
    }
  }
  ShrinkLeft();
  EnforceBudget();
  return Status::OK();
}

void Nips::SerializeTo(ByteWriter* out) const {
  FlushMetrics();
  conditions_.SerializeTo(out);
  out->PutU32(static_cast<uint32_t>(options_.fringe_size));
  out->PutU32(static_cast<uint32_t>(options_.capacity_factor));
  out->PutU32(static_cast<uint32_t>(options_.bitmap_bits));
  out->PutU32(static_cast<uint32_t>(fringe_left_));
  out->PutU32(static_cast<uint32_t>(fringe_right_ + 1));  // -1 → 0
  for (const Cell& cell : cells_) {
    out->PutBool(cell.one);
    out->PutBool(cell.has_supported);
    out->PutBool(cell.data != nullptr);
    if (cell.data) cell.data->SerializeTo(out);
  }
}

StatusOr<Nips> Nips::Deserialize(ByteReader* in) {
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions cond,
                             ImplicationConditions::Deserialize(in));
  NipsOptions options;
  uint32_t fringe_size, capacity_factor, bitmap_bits, left, right_plus_1;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&fringe_size));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&capacity_factor));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&bitmap_bits));
  if (bitmap_bits < 1 || bitmap_bits > 64) {
    return Status::InvalidArgument("Nips: bad bitmap_bits");
  }
  options.fringe_size = static_cast<int>(fringe_size);
  options.capacity_factor = static_cast<int>(capacity_factor);
  options.bitmap_bits = static_cast<int>(bitmap_bits);
  Nips nips(cond, options);
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&left));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&right_plus_1));
  if (left > bitmap_bits || right_plus_1 > bitmap_bits) {
    return Status::InvalidArgument("Nips: fringe out of range");
  }
  nips.fringe_left_ = static_cast<int>(left);
  nips.fringe_right_ = static_cast<int>(right_plus_1) - 1;
  for (Cell& cell : nips.cells_) {
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cell.one));
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cell.has_supported));
    bool has_data;
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&has_data));
    if (has_data) {
      IMPLISTAT_ASSIGN_OR_RETURN(FringeCell fringe,
                                 FringeCell::Deserialize(in));
      // Decoded itemsets enter this bitmap's fringe and count as
      // insertions — automatic, since insertions are derived from
      // tracked_ (see FlushMetrics).
      nips.tracked_ += fringe.num_itemsets();
      cell.data = std::make_unique<FringeCell>(std::move(fringe));
      nips.fringe_bytes_ += cell.data->MemoryBytes();
    }
  }
  return nips;
}

size_t Nips::MemoryBytes() const {
  FlushMetrics();
  return sizeof(*this) + cells_.size() * sizeof(Cell) + fringe_bytes_;
}

size_t Nips::RecountMemoryBytes() const {
  size_t bytes = sizeof(*this) + cells_.size() * sizeof(Cell);
  for (const Cell& c : cells_) {
    if (c.data) bytes += c.data->RecountMemoryBytes();
  }
  return bytes;
}

void Nips::SerializeDeltaTo(uint64_t since_clock, ByteWriter* out) const {
  FlushMetrics();
  out->PutVarint64(static_cast<uint64_t>(fringe_left_));
  out->PutVarint64(static_cast<uint64_t>(fringe_right_ + 1));  // -1 → 0
  std::vector<bool> changed(cells_.size());
  for (size_t i = 0; i < cells_.size(); ++i) {
    changed[i] = cells_[i].stamp > since_clock;
  }
  delta::EncodeMask(changed, out);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (!changed[i]) continue;
    const Cell& c = cells_[i];
    if (c.one) {
      out->PutU8(0);  // settled since the baseline
      out->PutBool(c.has_supported);
    } else {
      out->PutU8(1);  // live: ship the touched itemsets
      out->PutBool(c.has_supported);
      if (c.data) {
        c.data->SerializeItemPatchTo(since_clock, out);
      } else {
        FringeCell().SerializeItemPatchTo(since_clock, out);
      }
    }
  }
}

StatusOr<Nips::DeltaPatch> Nips::DecodeDeltaSection(ByteReader* in) const {
  DeltaPatch patch;
  uint64_t left, right_plus_1;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&left));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&right_plus_1));
  const uint64_t bits = static_cast<uint64_t>(options_.bitmap_bits);
  if (left > bits || right_plus_1 > bits || left > right_plus_1) {
    return Status::InvalidArgument("Nips delta: fringe out of range");
  }
  // The sender only moved forward since the receiver's baseline; a
  // regressing fringe means the baseline is not what the sender assumed.
  if (static_cast<int>(left) < fringe_left_ ||
      static_cast<int>(right_plus_1) - 1 < fringe_right_) {
    return Status::InvalidArgument("Nips delta: fringe regressed");
  }
  patch.fringe_left = static_cast<int>(left);
  patch.fringe_right = static_cast<int>(right_plus_1) - 1;

  std::vector<bool> changed;
  IMPLISTAT_RETURN_NOT_OK(
      delta::DecodeMask(in, cells_.size(), &changed));
  std::vector<bool> settles(cells_.size(), false);
  for (size_t i = 0; i < cells_.size(); ++i) {
    if (!changed[i]) continue;
    DeltaPatch::CellPatch cell;
    cell.index = static_cast<int>(i);
    uint8_t mode;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&mode));
    if (mode > 1) {
      return Status::InvalidArgument("Nips delta: unknown cell mode");
    }
    cell.settled = mode == 0;
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cell.cell_has_supported));
    // Either mode names a cell that was undecided at the baseline; one
    // that is already 1 here means sender and receiver disagree about
    // the baseline state — refuse and let the caller resync.
    if (cells_[i].one) {
      return Status::InvalidArgument("Nips delta: cell already settled");
    }
    if (cell.settled) {
      settles[i] = true;
    } else {
      if (cell.index < patch.fringe_left) {
        return Status::InvalidArgument(
            "Nips delta: live cell left of the fringe");
      }
      IMPLISTAT_ASSIGN_OR_RETURN(cell.items,
                                 FringeCell::DeserializeItemPatch(in));
      const size_t have =
          cells_[i].data ? cells_[i].data->num_itemsets() : 0;
      const size_t inserts =
          cells_[i].data ? cells_[i].data->NewKeys(cell.items)
                         : cell.items.items.size();
      if (have + inserts != cell.items.total_items) {
        return Status::InvalidArgument(
            "Nips delta: itemset count mismatch (desynced baseline)");
      }
    }
    patch.cells.push_back(std::move(cell));
  }
  // Advancing the fringe's left edge must leave only settled cells
  // behind it (Zone-1 invariant).
  for (int j = fringe_left_; j < patch.fringe_left; ++j) {
    if (!cells_[static_cast<size_t>(j)].one && !settles[static_cast<size_t>(j)]) {
      return Status::InvalidArgument(
          "Nips delta: fringe advanced over an undecided cell");
    }
  }
  return patch;
}

void Nips::ApplyDeltaPatch(DeltaPatch&& patch) {
  for (DeltaPatch::CellPatch& cell : patch.cells) {
    Cell& c = cells_[static_cast<size_t>(cell.index)];
    if (cell.settled) {
      DecideOne(cell.index, SettleCause::kMerge);
      c.has_supported = cell.cell_has_supported;
    } else {
      c.has_supported = cell.cell_has_supported;
      const size_t bytes_before = c.data ? c.data->MemoryBytes() : 0;
      if (!c.data) c.data = std::make_unique<FringeCell>();
      tracked_ += c.data->ApplyItemPatch(std::move(cell.items));
      fringe_bytes_ += c.data->MemoryBytes() - bytes_before;
    }
  }
  fringe_left_ = patch.fringe_left;
  fringe_right_ = patch.fringe_right;
}

void Nips::DecideOne(int cell, SettleCause cause) {
  Cell& c = cells_[cell];
  if (delta_tracking_) {
    ++clock_;
    c.stamp = clock_;
  }
  if (c.data) {
    size_t freed = c.data->num_itemsets();
    tracked_ -= freed;
    fringe_bytes_ -= c.data->MemoryBytes();
    IMPLISTAT_IF_METRICS(
        (cause == SettleCause::kBudget ? totals_.evictions
                                       : totals_.promotions) += freed);
    c.data.reset();  // free all the memory allocated for the cell
  }
  IMPLISTAT_IF_METRICS({
    switch (cause) {
      case SettleCause::kNonImplication:
        ++totals_.settled_non_implication;
        break;
      case SettleCause::kBudget:
        ++totals_.settled_budget;
        break;
      case SettleCause::kMerge:
        ++totals_.settled_merge;
        break;
    }
  });
  c.one = true;
}

void Nips::ShrinkLeft() {
  while (fringe_left_ <= fringe_right_ &&
         fringe_left_ < options_.bitmap_bits && cells_[fringe_left_].one) {
    ++fringe_left_;
  }
}

void Nips::EnforceBudget() {
  size_t budget = ItemBudget();
  if (budget == 0) return;
  // Algorithm 1's "overflowed" branch: force the leftmost undecided cells
  // — the most populated ones, which a genuine non-implication would
  // decide first anyway — until the budget holds. This is the §4.3.3
  // fixation step; it introduces error only for non-implication counts
  // below ~2^-F · F0(A).
  while (tracked_ > budget && fringe_left_ < options_.bitmap_bits &&
         fringe_left_ <= fringe_right_) {
    DecideOne(fringe_left_, SettleCause::kBudget);
    ShrinkLeft();
  }
}

}  // namespace implistat
