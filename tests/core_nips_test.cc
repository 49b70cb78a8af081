#include "core/nips.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"
#include "util/random.h"

namespace implistat {
namespace {

ImplicationConditions OneToOne(uint64_t sigma) {
  ImplicationConditions cond;
  cond.max_multiplicity = 1;
  cond.min_support = sigma;
  cond.min_top_confidence = 1.0;
  cond.confidence_c = 1;
  return cond;
}

NipsOptions Bounded(int fringe = 4, int factor = 2) {
  NipsOptions opts;
  opts.fringe_size = fringe;
  opts.capacity_factor = factor;
  opts.bitmap_bits = 32;
  return opts;
}

NipsOptions Unbounded() {
  NipsOptions opts;
  opts.fringe_size = 0;
  opts.bitmap_bits = 32;
  return opts;
}

TEST(NipsTest, FreshBitmapHasZeroPositions) {
  Nips nips(OneToOne(1), Bounded());
  EXPECT_EQ(nips.RNonImplication(), 0);
  EXPECT_EQ(nips.RSupport(), 0);
  EXPECT_EQ(nips.fringe_right(), -1);
  EXPECT_EQ(nips.fringe_left(), 0);
}

TEST(NipsTest, ItemBudgetFollowsFringeSize) {
  EXPECT_EQ(Nips(OneToOne(1), Bounded(4, 2)).ItemBudget(), 30u);
  EXPECT_EQ(Nips(OneToOne(1), Bounded(8, 2)).ItemBudget(), 510u);
  EXPECT_EQ(Nips(OneToOne(1), Bounded(4, 1)).ItemBudget(), 15u);
  EXPECT_EQ(Nips(OneToOne(1), Unbounded()).ItemBudget(), 0u);
}

TEST(NipsTest, FringeRightTracksRightmostHashedCell) {
  Nips nips(OneToOne(1), Bounded());
  nips.ObserveAt(10, /*a=*/1, /*b=*/1);
  EXPECT_EQ(nips.fringe_right(), 10);
  nips.ObserveAt(4, 2, 1);
  EXPECT_EQ(nips.fringe_right(), 10);
  nips.ObserveAt(12, 3, 1);
  EXPECT_EQ(nips.fringe_right(), 12);
}

TEST(NipsTest, NoForcingWhileWithinBudget) {
  // Budget 30: a handful of itemsets spread over cells stays untouched.
  Nips nips(OneToOne(1000), Bounded(4, 2));
  for (int cell = 0; cell < 10; ++cell) {
    nips.ObserveAt(cell, 100 + cell, 1);
  }
  EXPECT_EQ(nips.TrackedItemsets(), 10u);
  EXPECT_EQ(nips.fringe_left(), 0);
  EXPECT_EQ(nips.RNonImplication(), 0);
}

TEST(NipsTest, BudgetPressureForcesLeftmostCells) {
  // Budget 1·(2^1 − 1) = 1 itemset: a second tracked itemset forces the
  // prefix up to (and including) the first populated cell.
  Nips nips(OneToOne(1000), Bounded(1, 1));
  nips.ObserveAt(5, 1, 1);
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  nips.ObserveAt(3, 2, 1);
  // Cells 0..3 forced to one (freeing itemset 2), budget satisfied again.
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  EXPECT_EQ(nips.fringe_left(), 4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(nips.CellIsOne(i)) << i;
  EXPECT_FALSE(nips.CellIsOne(4));
  EXPECT_EQ(nips.RNonImplication(), 4);
}

TEST(NipsTest, ObservationsBelowForcedZoneAreDropped) {
  Nips nips(OneToOne(1000), Bounded(1, 1));
  nips.ObserveAt(5, 1, 1);
  nips.ObserveAt(3, 2, 1);  // forces cells 0..3 (see above)
  ASSERT_EQ(nips.fringe_left(), 4);
  nips.ObserveAt(2, 3, 1);  // lands in Zone-1: already recorded as 1
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  EXPECT_TRUE(nips.CellIsOne(2));
}

TEST(NipsTest, NonImplicationSetsCellToOneAndFrees) {
  Nips nips(OneToOne(1), Bounded(4));
  nips.ObserveAt(2, 1, 10);
  EXPECT_EQ(nips.TrackedItemsets(), 1u);
  nips.ObserveAt(2, 1, 11);  // K=1, second b → non-implication
  EXPECT_TRUE(nips.CellIsOne(2));
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
}

TEST(NipsTest, DecisionsGrowZoneOneOnlyFromTheLeft) {
  Nips nips(OneToOne(1), Bounded(4));
  nips.ObserveAt(2, 1, 10);
  nips.ObserveAt(2, 1, 11);  // cell 2 decided 1
  // Cells 0 and 1 are still zero, so the Zone-1 prefix has not moved.
  EXPECT_EQ(nips.fringe_left(), 0);
  EXPECT_EQ(nips.RNonImplication(), 0);
  nips.ObserveAt(0, 2, 10);
  nips.ObserveAt(0, 2, 11);
  nips.ObserveAt(1, 3, 10);
  nips.ObserveAt(1, 3, 11);
  // Now cells 0,1,2 are all one: the prefix (and R_~S) reaches 3.
  EXPECT_EQ(nips.fringe_left(), 3);
  EXPECT_EQ(nips.RNonImplication(), 3);
}

TEST(NipsTest, RSupportCountsSupportedFringeCells) {
  auto cond = OneToOne(2);
  Nips nips(cond, Bounded(8));
  nips.ObserveAt(2, 1, 1);
  nips.ObserveAt(1, 2, 1);
  nips.ObserveAt(0, 3, 1);
  // No itemset supported yet (σ=2): R_sup stops at cell 0.
  EXPECT_EQ(nips.RSupport(), 0);
  nips.ObserveAt(0, 3, 1);  // support reaches 2 in cell 0
  EXPECT_EQ(nips.RSupport(), 1);
  nips.ObserveAt(1, 2, 1);
  EXPECT_EQ(nips.RSupport(), 2);
  nips.ObserveAt(2, 1, 1);
  EXPECT_EQ(nips.RSupport(), 3);
  // None of them is a non-implication, so R_~S < R_sup.
  EXPECT_EQ(nips.RNonImplication(), 0);
}

TEST(NipsTest, OverflowForcesThroughCrowdedCell) {
  // Budget 1: a second itemset overflows; forcing sweeps the prefix up to
  // and including the crowded cell.
  Nips nips(OneToOne(1000), Bounded(1, 1));
  nips.ObserveAt(6, 1, 1);
  EXPECT_FALSE(nips.CellIsOne(6));
  nips.ObserveAt(6, 2, 1);
  EXPECT_TRUE(nips.CellIsOne(6));
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
  EXPECT_EQ(nips.fringe_left(), 7);
}

TEST(NipsTest, UnboundedFringeNeverForcesCells) {
  Nips nips(OneToOne(1000), Unbounded());
  nips.ObserveAt(0, 1, 1);
  nips.ObserveAt(20, 2, 1);
  EXPECT_EQ(nips.fringe_left(), 0);
  EXPECT_EQ(nips.TrackedItemsets(), 2u);
  // Cell 1 was never hashed: still zero, so R_~S = 0.
  EXPECT_EQ(nips.RNonImplication(), 0);
}

TEST(NipsTest, UnboundedTracksEverythingUntilDecided) {
  Nips nips(OneToOne(1), Unbounded());
  for (int cell = 0; cell < 10; ++cell) {
    nips.ObserveAt(cell, 100 + cell, 1);
  }
  EXPECT_EQ(nips.TrackedItemsets(), 10u);
  for (int cell = 0; cell < 10; ++cell) {
    nips.ObserveAt(cell, 100 + cell, 2);  // all become non-implications
  }
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
  EXPECT_EQ(nips.RNonImplication(), 10);
}

TEST(NipsTest, HashPositionsBeyondBitmapClampToLastCell) {
  auto opts = Bounded(4);
  opts.bitmap_bits = 8;
  Nips nips(OneToOne(1), opts);
  nips.ObserveAt(63, 1, 1);
  EXPECT_EQ(nips.fringe_right(), 7);
}

TEST(NipsTest, ObservationsOnDecidedCellsAreNoOps) {
  Nips nips(OneToOne(1), Bounded(4));
  nips.ObserveAt(3, 1, 10);
  nips.ObserveAt(3, 1, 11);  // decide cell 3
  ASSERT_TRUE(nips.CellIsOne(3));
  nips.ObserveAt(3, 2, 20);  // lands on a decided cell
  EXPECT_EQ(nips.TrackedItemsets(), 0u);
  EXPECT_TRUE(nips.CellIsOne(3));
}

TEST(NipsTest, TrackedItemsetsNeverExceedsBudget) {
  Nips nips(OneToOne(1000), Bounded(4, 2));
  // Adversarial spread: 1000 itemsets over low cells.
  for (int i = 0; i < 1000; ++i) {
    nips.ObserveAt(i % 8, 5000 + i, 1);
  }
  EXPECT_LE(nips.TrackedItemsets(), nips.ItemBudget());
}

TEST(NipsTest, FringeTrafficCountersMatchTrackedItemsets) {
  // Every itemset that enters a fringe leaves it exactly once — evicted
  // by §4.3.3 budget fixation or promoted when its cell settles — so the
  // counter deltas over any workload must balance the live population:
  //   insertions − evictions − promotions == Σ TrackedItemsets().
  if constexpr (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "built with IMPLISTAT_METRICS=OFF";
  }
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter* insertions = reg.GetCounter("nips_fringe_insertions_total");
  obs::Counter* evictions = reg.GetCounter("nips_fringe_evictions_total");
  obs::Counter* promotions = reg.GetCounter("nips_settled_promotions_total");
  uint64_t ins0 = insertions->Value();
  uint64_t ev0 = evictions->Value();
  uint64_t pr0 = promotions->Value();

  // A budget-pressured bitmap (evictions) plus an unbounded one whose
  // K=1 violations settle cells (promotions), observed interleaved.
  Nips bounded(OneToOne(2), Bounded(4, 2));
  Nips unbounded(OneToOne(1), Unbounded());
  for (int i = 0; i < 5000; ++i) {
    bounded.ObserveAt(i % 16, 1000 + i % 300, i % 5);
    unbounded.ObserveAt(i % 16, 1000 + i % 300, i % 3);
  }

  // TrackedItemsets() is the read boundary that folds each bitmap's
  // batched events into the registry — take it first, then the deltas.
  size_t live = bounded.TrackedItemsets() + unbounded.TrackedItemsets();
  uint64_t inserted = insertions->Value() - ins0;
  uint64_t evicted = evictions->Value() - ev0;
  uint64_t promoted = promotions->Value() - pr0;
  EXPECT_GT(inserted, 0u);
  EXPECT_EQ(inserted - evicted - promoted, live);
}

TEST(NipsTest, MemoryShrinksAsCellsDecide) {
  Nips nips(OneToOne(1), Bounded(8));
  for (int cell = 0; cell < 8; ++cell) {
    nips.ObserveAt(cell, 200 + cell, 1);
  }
  size_t loaded = nips.MemoryBytes();
  for (int cell = 0; cell < 8; ++cell) {
    nips.ObserveAt(cell, 200 + cell, 2);
  }
  EXPECT_LT(nips.MemoryBytes(), loaded);
}

// --- The retired map-based fringe cell, kept as an oracle ----------------
//
// FringeCell used to hold its itemsets in an unordered_map and its delta
// stamps in a second map, and sorted the keys on every write. The sorted
// entry array must reproduce it byte for byte; this is that cell, less
// its memory accounting and metrics.
class MapFringeCell {
 public:
  using Outcome = FringeCell::Outcome;

  Outcome Observe(ItemsetKey a, ItemsetKey b,
                  const ImplicationConditions& cond) {
    ItemsetState& state = items_[a];
    bool dirty = state.Observe(b, cond);
    if (state.supported(cond)) has_supported_ = true;
    return dirty ? Outcome::kNonImplication : Outcome::kUndecided;
  }

  void NoteStamp(ItemsetKey a, uint64_t stamp) { stamps_[a] = stamp; }

  Outcome Merge(const MapFringeCell& other,
                const ImplicationConditions& cond) {
    Outcome outcome = Outcome::kUndecided;
    for (const auto& [key, other_state] : other.items_) {
      auto [it, inserted] = items_.try_emplace(key, other_state);
      if (!inserted) it->second.Merge(other_state, cond);
      if (it->second.dirty()) outcome = Outcome::kNonImplication;
      if (it->second.supported(cond)) has_supported_ = true;
    }
    if (other.has_supported_) has_supported_ = true;
    return outcome;
  }

  size_t num_itemsets() const { return items_.size(); }
  bool has_supported() const { return has_supported_; }

  void SerializeTo(ByteWriter* out) const {
    out->PutBool(has_supported_);
    out->PutVarint64(items_.size());
    std::vector<ItemsetKey> keys;
    for (const auto& [key, state] : items_) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    for (ItemsetKey key : keys) {
      out->PutU64(key);
      items_.at(key).SerializeTo(out);
    }
  }

  static StatusOr<MapFringeCell> Deserialize(ByteReader* in) {
    MapFringeCell cell;
    IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cell.has_supported_));
    uint64_t items;
    IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&items));
    for (uint64_t i = 0; i < items; ++i) {
      ItemsetKey key;
      IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&key));
      IMPLISTAT_ASSIGN_OR_RETURN(ItemsetState state,
                                 ItemsetState::Deserialize(in));
      cell.items_.emplace(key, std::move(state));
    }
    return cell;
  }

  void SerializeItemPatchTo(uint64_t since_stamp, ByteWriter* out) const {
    out->PutBool(has_supported_);
    out->PutVarint64(items_.size());
    std::vector<ItemsetKey> changed;
    for (const auto& [key, stamp] : stamps_) {
      if (stamp > since_stamp) changed.push_back(key);
    }
    std::sort(changed.begin(), changed.end());
    out->PutVarint64(changed.size());
    for (ItemsetKey key : changed) {
      out->PutU64(key);
      items_.at(key).SerializeTo(out);
    }
  }

  size_t NewKeys(const FringeCell::ItemPatch& patch) const {
    size_t inserts = 0;
    for (const auto& [key, state] : patch.items) {
      if (items_.find(key) == items_.end()) ++inserts;
    }
    return inserts;
  }

  size_t ApplyItemPatch(FringeCell::ItemPatch&& patch) {
    const size_t before = items_.size();
    for (auto& [key, state] : patch.items) items_[key] = std::move(state);
    has_supported_ = patch.has_supported;
    return items_.size() - before;
  }

 private:
  std::unordered_map<ItemsetKey, ItemsetState> items_;
  std::unordered_map<ItemsetKey, uint64_t> stamps_;
  bool has_supported_ = false;
};

template <typename Cell>
std::string CellBytes(const Cell& cell) {
  ByteWriter out;
  cell.SerializeTo(&out);
  return out.Release();
}

template <typename Cell>
std::string PatchBytes(const Cell& cell, uint64_t since) {
  ByteWriter out;
  cell.SerializeItemPatchTo(since, &out);
  return out.Release();
}

template <typename Cell>
Cell DecodeCell(const std::string& bytes) {
  ByteReader in(bytes);
  StatusOr<Cell> cell = Cell::Deserialize(&in);
  EXPECT_TRUE(cell.ok()) << cell.status().ToString();
  return std::move(cell).value();
}

FringeCell::ItemPatch DecodePatch(const std::string& bytes) {
  ByteReader in(bytes);
  StatusOr<FringeCell::ItemPatch> patch = FringeCell::DeserializeItemPatch(&in);
  EXPECT_TRUE(patch.ok()) << patch.status().ToString();
  return std::move(patch).value();
}

void ExpectSameCell(const FringeCell& flat, const MapFringeCell& map,
                    const std::string& where) {
  EXPECT_EQ(CellBytes(flat), CellBytes(map)) << where;
  EXPECT_EQ(flat.num_itemsets(), map.num_itemsets()) << where;
  EXPECT_EQ(flat.has_supported(), map.has_supported()) << where;
  EXPECT_EQ(flat.MemoryBytes(), flat.RecountMemoryBytes()) << where;
}

// Drives the sorted-array cell and the retired map cell through the same
// seeded sequences of observes (stamped and not), merges, item patches
// and snapshot round trips, and compares them after every step.
TEST(FringeCellDifferentialTest, FlatCellMatchesTheRetiredMapCell) {
  constexpr size_t kCells = 4;
  for (bool strict : {true, false}) {
    for (uint32_t k : {1u, 2u, 16u}) {
      ImplicationConditions cond;
      cond.max_multiplicity = k;
      cond.min_support = 4;
      cond.min_top_confidence = 0.75;
      cond.confidence_c = std::min<uint32_t>(k, 2);
      cond.strict_multiplicity = strict;
      Rng rng(7000 + 2 * k + (strict ? 1 : 0));
      std::vector<ItemsetKey> keys(40);
      for (ItemsetKey& key : keys) key = rng.Next64();

      std::vector<FringeCell> flat(kCells);
      std::vector<MapFringeCell> map(kCells);
      // Each cell's receiver twin as of its last baseline, that baseline's
      // clock, and whether only stamped observes changed the cell since.
      std::vector<FringeCell> flat_twin(kCells);
      std::vector<MapFringeCell> map_twin(kCells);
      std::vector<uint64_t> baseline(kCells, 0);
      std::vector<bool> stamped_only(kCells, true);
      uint64_t clock = 0;
      auto rebaseline = [&](size_t x) {
        flat_twin[x] = DecodeCell<FringeCell>(CellBytes(flat[x]));
        map_twin[x] = DecodeCell<MapFringeCell>(CellBytes(map[x]));
        baseline[x] = clock;
        stamped_only[x] = true;
      };
      auto settle = [&](size_t x) {  // as Nips::DecideOne frees a cell
        flat[x] = FringeCell();
        map[x] = MapFringeCell();
        rebaseline(x);
      };

      for (int step = 0; step < 2500; ++step) {
        const size_t x = rng.Uniform(kCells);
        const std::string where = "strict=" + std::to_string(strict) +
                                  " K=" + std::to_string(k) +
                                  " step=" + std::to_string(step);
        const uint64_t op = rng.Uniform(100);
        if (op < 70) {
          const ItemsetKey a = keys[rng.Uniform(keys.size())];
          const ItemsetKey b = rng.Uniform(k + 3);
          const uint64_t stamp = rng.Uniform(4) != 0 ? ++clock : 0;
          FringeCell::Outcome outcome = flat[x].Observe(a, b, cond, stamp);
          ASSERT_EQ(outcome, map[x].Observe(a, b, cond)) << where;
          if (stamp != 0) {
            map[x].NoteStamp(a, stamp);
          } else {
            stamped_only[x] = false;
          }
          ExpectSameCell(flat[x], map[x], where);
          if (outcome == FringeCell::Outcome::kNonImplication &&
              rng.Uniform(2) == 0) {
            settle(x);
          }
        } else if (op < 80) {
          const size_t y = rng.Uniform(kCells);
          if (y == x) continue;
          FringeCell::Outcome outcome = flat[x].Merge(flat[y], cond);
          ASSERT_EQ(outcome, map[x].Merge(map[y], cond)) << where;
          stamped_only[x] = false;
          ExpectSameCell(flat[x], map[x], where);
          if (outcome == FringeCell::Outcome::kNonImplication &&
              rng.Uniform(2) == 0) {
            settle(x);
          }
        } else if (op < 95) {
          const std::string patch = PatchBytes(flat[x], baseline[x]);
          ASSERT_EQ(patch, PatchBytes(map[x], baseline[x])) << where;
          FringeCell::ItemPatch flat_patch = DecodePatch(patch);
          FringeCell::ItemPatch map_patch = DecodePatch(patch);
          // Half the patches go to the cell's twin, as a delta receiver
          // applies them; the rest to another live cell, whose own
          // stamps the patch must leave in place.
          const size_t z = rng.Uniform(kCells);
          const bool to_twin = rng.Uniform(2) == 0 || z == x;
          FringeCell& flat_to = to_twin ? flat_twin[x] : flat[z];
          MapFringeCell& map_to = to_twin ? map_twin[x] : map[z];
          const size_t added = flat_to.NewKeys(flat_patch);
          ASSERT_EQ(added, map_to.NewKeys(map_patch)) << where;
          if (to_twin && stamped_only[x]) {
            EXPECT_EQ(flat_to.num_itemsets() + added, flat_patch.total_items)
                << where;
          }
          ASSERT_EQ(flat_to.ApplyItemPatch(std::move(flat_patch)),
                    map_to.ApplyItemPatch(std::move(map_patch)))
              << where;
          ExpectSameCell(flat_to, map_to, where);
          if (to_twin) {
            if (stamped_only[x]) {
              EXPECT_EQ(CellBytes(flat_to), CellBytes(flat[x])) << where;
            }
            rebaseline(x);
          } else {
            stamped_only[z] = false;
            EXPECT_EQ(PatchBytes(flat[z], baseline[z]),
                      PatchBytes(map[z], baseline[z]))
                << where;
          }
        } else {
          // A snapshot round trip; stamps do not survive it on either side.
          const std::string bytes = CellBytes(flat[x]);
          ASSERT_EQ(bytes, CellBytes(map[x])) << where;
          flat[x] = DecodeCell<FringeCell>(bytes);
          map[x] = DecodeCell<MapFringeCell>(bytes);
          EXPECT_EQ(CellBytes(flat[x]), bytes) << where;
          ExpectSameCell(flat[x], map[x], where);
          rebaseline(x);
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

}  // namespace
}  // namespace implistat
