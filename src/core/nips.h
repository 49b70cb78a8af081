// NIPS — Non-Implication Probabilistic Sampling (Algorithm 1).
//
// One FM-style bitmap whose undecided cells (the floating fringe, §4.3.2)
// carry per-itemset counters. The recording event is the discovery of a
// non-implication: once a tracked itemset of a cell violates the
// implication conditions, the cell's value becomes 1 and its memory is
// freed.
//
// Bounding the fringe: a fringe of F cells corresponds to an itemset
// budget of capacity_factor · (2^F − 1) per bitmap (§4.3.2: cells at
// distance 0,1,2,.. from the fringe's right edge expect 1,2,4,.. itemsets,
// doubled for hash-function slack). We enforce the budget directly: when
// the tracked-itemset count exceeds it, the leftmost undecided cells — the
// most populated ones, which would be decided first anyway — are forced to
// value 1 and freed, exactly the §4.3.3 fixation step. Forcing on memory
// pressure rather than eagerly on every float of the fringe's right edge
// avoids a bias the literal reading would introduce: the rightmost hashed
// cell overshoots log2(F0) by a Gumbel-distributed excess, and anchoring
// the forced zone at (rightmost − F) inflates the non-implication estimate
// whenever ~S ≲ F0 even for counts Lemma 2 declares safe. With the budget
// rule the minimum reliably-estimable non-implication count is
// ~2^-F · F0(A), matching §4.3.3 (6.25% of F0 at F = 4).
//
// This class operates on pre-computed cell positions so that an ensemble
// (nips_ci_ensemble.h) can split one hash into routing bits and p() bits;
// use NipsCi for the user-facing estimator.

#ifndef IMPLISTAT_CORE_NIPS_H_
#define IMPLISTAT_CORE_NIPS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/conditions.h"
#include "core/fringe_cell.h"
#include "stream/itemset.h"

namespace implistat {

struct NipsOptions {
  /// Fringe size F in cells; the per-bitmap itemset budget is
  /// capacity_factor · (2^F − 1). 0 (or negative) means unbounded — every
  /// undecided cell keeps its itemsets (the straw-man of §4.2, the
  /// "Unbounded Fringe" series of Figures 4–6).
  int fringe_size = 4;
  /// Budget multiplier ("we can double the allocated memory", §4.3.2).
  /// 0 = unlimited. Algorithm 1's per-cell "overflowed" condition is
  /// realized at bitmap granularity by this budget: a cell population
  /// that outgrows the fringe's allocation triggers the same
  /// force-leftmost-to-one fixation.
  int capacity_factor = 2;
  /// Bitmap length L in cells.
  int bitmap_bits = 58;
};

class Nips {
 public:
  Nips(ImplicationConditions conditions, NipsOptions options);

  /// Records that itemset `a` (hashed to cell `cell`) appeared with `b`.
  /// `cell` must be >= 0; positions beyond the bitmap land in its last
  /// cell.
  void ObserveAt(int cell, ItemsetKey a, ItemsetKey b);

  /// Cache hint that `cell`'s slot is about to be touched by ObserveAt.
  /// The batched ingest path (NipsCi::ObserveBatch) issues these a few
  /// records ahead so the cell loads of a batch overlap instead of
  /// serializing on misses.
  void PrefetchCell(int cell) const {
    if (cell >= options_.bitmap_bits) cell = options_.bitmap_bits - 1;
    __builtin_prefetch(&cells_[static_cast<size_t>(cell)], /*rw=*/1,
                       /*locality=*/1);
  }

  /// Raw position R_~S: index of the leftmost cell whose value is not 1.
  /// Feeds the non-implication estimate (Algorithm 2, lines 5–8).
  int RNonImplication() const;

  /// Raw position R_F0sup: index of the leftmost cell with neither value 1
  /// nor a tracked itemset meeting the minimum support (Algorithm 2, lines
  /// 1–4, with the §4.4 "virtual one" rule).
  int RSupport() const;

  /// Cell value as the bitmap sees it.
  bool CellIsOne(int cell) const;

  /// Itemsets currently tracked across the fringe; bounded by
  /// ItemBudget() in bounded mode. A read boundary: folds pending metric
  /// events into the global registry (see FlushMetrics).
  size_t TrackedItemsets() const;

  /// Folds this bitmap's pending fringe-traffic events (plus the calling
  /// thread's dirty-exclusion counts) into the global metrics registry.
  /// The ingest path deliberately never touches an atomic — events
  /// accumulate in plain members and become visible here. Called from
  /// every read accessor (TrackedItemsets / MemoryBytes / SerializeTo)
  /// and from NipsCi before estimates and snapshots; no-op when metrics
  /// are compiled out.
  void FlushMetrics() const;

  /// The per-bitmap itemset budget, or 0 when unbounded.
  size_t ItemBudget() const;

  /// Folds another bitmap into this one: cell values OR together,
  /// undecided cells merge their tracked itemsets, then the budget is
  /// re-enforced. Both bitmaps must have identical conditions and options
  /// (and, in an ensemble, the same hash function — see NipsCi::Merge).
  /// The merged bitmap summarizes the concatenation of the two input
  /// streams, up to the node-local prefix semantics of the monotone-dirty
  /// rule (see ItemsetState::Merge).
  Status Merge(const Nips& other);

  /// O(1): the fringe cells' bytes are kept as a running sum. Always
  /// equals RecountMemoryBytes().
  size_t MemoryBytes() const;

  /// The same figure by walking every fringe cell; for tests.
  size_t RecountMemoryBytes() const;

  void SerializeTo(ByteWriter* out) const;
  static StatusOr<Nips> Deserialize(ByteReader* in);

  // --- Delta shipping (src/delta/) ---------------------------------------
  //
  // Once tracking is enabled, every mutation — a fringe-cell observe, a
  // cell settling to 1, the rightmost hashed position advancing — bumps
  // change_clock() and stamps the touched cell (and itemset). A delta
  // section then ships the fringe header plus exactly the cells stamped
  // after the receiver's baseline clock; applying it to a bitmap that was
  // byte-identical at that clock reproduces this bitmap byte-for-byte
  // (SerializeTo equality). Tracking costs nothing until enabled — the
  // hot path tests one bool.

  /// Starts stamping mutations. Idempotent. State mutated before this
  /// call is never shipped in a delta (the baseline full snapshot that
  /// enabled tracking already carries it).
  void EnableDeltaTracking() { delta_tracking_ = true; }
  bool delta_tracking() const { return delta_tracking_; }

  /// Monotone mutation counter; equal clocks mean byte-identical state
  /// (while tracking is on and no Merge/restore intervened).
  uint64_t change_clock() const { return clock_; }

  /// Decoded, target-validated form of one bitmap's delta section.
  struct DeltaPatch {
    struct CellPatch {
      int index = 0;
      bool settled = false;        // cell decided to 1 since the baseline
      bool cell_has_supported = false;
      FringeCell::ItemPatch items; // live cells only (!settled)
    };
    int fringe_left = 0;
    int fringe_right = -1;
    std::vector<CellPatch> cells;
  };

  /// Serializes the changes since `since_clock` (a clock value recorded
  /// at the receiver's baseline snapshot).
  void SerializeDeltaTo(uint64_t since_clock, ByteWriter* out) const;

  /// Decodes one delta section AND validates it against this bitmap (the
  /// intended apply target): fringe bounds monotone, settled cells not
  /// already settled, item counts consistent. Any mismatch — corruption
  /// or a desynced baseline — refuses without touching *this.
  StatusOr<DeltaPatch> DecodeDeltaSection(ByteReader* in) const;

  /// Applies a patch validated by DecodeDeltaSection. Infallible.
  void ApplyDeltaPatch(DeltaPatch&& patch);

  int fringe_left() const { return fringe_left_; }
  int fringe_right() const { return fringe_right_; }
  const ImplicationConditions& conditions() const { return conditions_; }
  const NipsOptions& options() const { return options_; }

 private:
  struct Cell {
    bool one = false;            // decided value 1
    bool has_supported = false;  // saw an itemset with φ(a) ≥ σ
    uint64_t stamp = 0;          // change_clock() at last mutation
    std::unique_ptr<FringeCell> data;
  };

  // Why a cell settled to value 1 — distinguishes the §4.3.3 forced
  // fixation (its freed itemsets are "evictions") from genuine
  // non-implication / merge settles ("promotions"). Observability only.
  enum class SettleCause { kNonImplication, kBudget, kMerge };

  bool bounded() const { return options_.fringe_size > 0; }

  // Marks `cell` as value 1 and releases its tracked itemsets.
  void DecideOne(int cell, SettleCause cause);

  // Advances fringe_left_ past decided cells.
  void ShrinkLeft();

  // Forces leftmost undecided cells to 1 until the budget holds (§4.3.3
  // fixation).
  void EnforceBudget();

  // Lifetime event totals, kept with plain adds on the (rare) settle path
  // so ObserveAt stays instrumentation-free: cumulative insertions are
  // derived, not counted — every itemset that ever entered is either
  // still tracked or left through an eviction/promotion, so
  //   insertions == tracked_ + evictions + promotions
  // at all times. FlushMetrics() (const — a bookkeeping side effect,
  // hence the mutable reported state) pushes the delta against what was
  // last reported into the registry's atomics at read boundaries.
  struct EventTotals {
    uint64_t evictions = 0;
    uint64_t promotions = 0;
    uint64_t settled_non_implication = 0;
    uint64_t settled_budget = 0;
    uint64_t settled_merge = 0;
  };

  ImplicationConditions conditions_;
  NipsOptions options_;
  // Sits in options_' tail padding, leaving room below for fringe_bytes_
  // at no cost to sizeof(Nips).
  bool delta_tracking_ = false;
  std::vector<Cell> cells_;
  EventTotals totals_;
  mutable EventTotals reported_;
  mutable uint64_t insertions_reported_ = 0;
  size_t tracked_ = 0;
  size_t fringe_bytes_ = 0;  // Σ MemoryBytes() of the live fringe cells
  int fringe_left_ = 0;    // leftmost undecided cell (Zone-1 ends here)
  int fringe_right_ = -1;  // rightmost hashed cell; -1 before any input
  uint64_t clock_ = 0;     // mutation counter; see EnableDeltaTracking
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_NIPS_H_
