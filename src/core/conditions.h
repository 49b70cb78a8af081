// Implication conditions (§3.1.1) and the per-itemset state machine that
// evaluates them.
//
// An implication a → B holds under conditions (K, σ, γ, c) when
//   1. multiplicity |Φ(a→B)| ≤ K   (a appears with at most K itemsets of B),
//   2. support φ(a) ≥ σ            (absolute tuple count),
//   3. top-c confidence γ_c(a→B) ≥ γ (the c largest φ(a,b)/φ(a) sum to ≥ γ).
//
// Semantics are monotone-dirty: the first time an itemset satisfies the
// support condition but violates 1 or 3, it is excluded from the
// implication count forever, even if a later suffix of the stream would
// satisfy the conditions again. Every estimator in this library (NIPS, the
// exact baseline, distinct sampling, ILC) shares ItemsetState so they all
// answer exactly the same question.

#ifndef IMPLISTAT_CORE_CONDITIONS_H_
#define IMPLISTAT_CORE_CONDITIONS_H_

#include <cstddef>
#include <cstdint>

#include "stream/itemset.h"
#include "util/serde.h"
#include "util/status.h"
#include "util/status_or.h"

namespace implistat {

struct ImplicationConditions {
  /// Maximum multiplicity K (condition 1).
  uint32_t max_multiplicity = 1;
  /// Minimum support σ, an absolute number of tuples (condition 2; §3.1
  /// explains why absolute rather than relative).
  uint64_t min_support = 1;
  /// Minimum top-c confidence γ in (0, 1] (condition 3).
  double min_top_confidence = 1.0;
  /// The c of the top-c confidence; typically c ≤ K.
  uint32_t confidence_c = 1;
  /// Governs how the multiplicity condition is enforced.
  ///
  /// true (the §3.1.1 definition): a (K+1)-th distinct b makes a supported
  /// itemset a non-implication outright — needed for one-to-many queries
  /// like "sources contacting more than ten destinations".
  ///
  /// false (the Algorithm 1 / §6.1 behaviour): K only bounds the per-
  /// itemset counters; at most K pair counters are kept (a new b can evict
  /// a counter still at 1) and violations are detected solely through the
  /// top-c confidence. This matches the paper's own experiments, whose
  /// qualifying itemsets deliberately carry a few extra noise pairs.
  bool strict_multiplicity = true;

  Status Validate() const;

  void SerializeTo(ByteWriter* out) const;
  static StatusOr<ImplicationConditions> Deserialize(ByteReader* in);
};

bool operator==(const ImplicationConditions& a,
                const ImplicationConditions& b);

/// Which condition turned an itemset dirty (§3.1.1). Observability only —
/// it does not affect estimates and is not serialized, so states decoded
/// from the wire report kNone.
enum class DirtyReason : uint8_t {
  kNone = 0,
  kMultiplicity = 1,  // condition 1: |Φ(a→B)| > K
  kConfidence = 2,    // condition 3: γ_c(a→B) < γ
};

/// One tracked (a, b) pair: b and the support φ(a, b).
struct BCount {
  ItemsetKey b;
  uint64_t count;
};

/// An itemset's (b, count) pairs in insertion order. The first pair is
/// held inline, so the common itemset seen with a single b costs no heap
/// block; from the second pair on the list lives in one heap block that
/// grows by doubling. 24 bytes, the size of the std::vector it replaces.
class PairList {
 public:
  PairList() : one_{0, 0} {}
  PairList(const PairList& other);
  PairList& operator=(const PairList& other);
  PairList(PairList&& other) noexcept;
  PairList& operator=(PairList&& other) noexcept;
  ~PairList() { FreeHeap(); }

  size_t size() const { return size_; }
  BCount* begin() { return data(); }
  BCount* end() { return data() + size_; }
  const BCount* begin() const { return data(); }
  const BCount* end() const { return data() + size_; }

  void PushBack(ItemsetKey b, uint64_t count);
  /// Makes room for `n` pairs in one heap block (n > 1; no-op otherwise).
  void Reserve(size_t n);
  /// Drops every pair and frees the heap block.
  void Release();

  /// Bytes of the heap block; 0 while the list fits inline.
  size_t HeapBytes() const {
    return spilled() ? size_t{capacity_} * sizeof(BCount) : 0;
  }

 private:
  bool spilled() const { return capacity_ > 1; }
  BCount* data() { return spilled() ? heap_ : &one_; }
  const BCount* data() const { return spilled() ? heap_ : &one_; }
  void Grow(size_t capacity);
  void FreeHeap() {
    if (spilled()) delete[] heap_;
  }

  union {
    BCount one_;    // capacity_ == 1
    BCount* heap_;  // capacity_ > 1
  };
  uint32_t size_ = 0;
  uint32_t capacity_ = 1;
};

/// Tracks one itemset a of A: its support, the supports of the (a, b)
/// pairs, and whether a is a known non-implication ("dirty").
class ItemsetState {
 public:
  /// With `unlimited_tracking` the state keeps a counter for *every*
  /// distinct b (exact semantics — what the ground-truth counter uses);
  /// otherwise at most K pair counters are kept, per the estimator memory
  /// bounds of §4.6. The flag is irrelevant under strict multiplicity,
  /// where a (K+1)-th b settles the itemset's fate anyway.
  explicit ItemsetState(bool unlimited_tracking = false)
      : unlimited_tracking_(unlimited_tracking) {}

  /// Records one occurrence of (a, b) and re-evaluates the conditions.
  /// Returns true iff the itemset is dirty after the update.
  bool Observe(ItemsetKey b, const ImplicationConditions& cond);

  /// Known non-implication: satisfied σ at some point while violating the
  /// multiplicity or top-c confidence condition.
  bool dirty() const { return dirty_; }

  /// The condition that made this state dirty; kNone while clean (and for
  /// deserialized states — see DirtyReason).
  DirtyReason dirty_reason() const { return dirty_reason_; }

  /// φ(a) ≥ σ.
  bool supported(const ImplicationConditions& cond) const {
    return support_ >= cond.min_support;
  }

  uint64_t support() const { return support_; }

  /// Number of distinct b itemsets seen with a. Saturates at K + 1 once
  /// the multiplicity condition is violated (the individual pairs are
  /// dropped to keep the state O(K)).
  uint32_t multiplicity() const { return mult_; }

  /// Sum of the c largest confidences φ(a,b)/φ(a); 0 when support is 0.
  /// Allocates nothing unless more than kTopConfidenceStackPairs pairs are
  /// tracked and c is below their number.
  double TopConfidence(uint32_t c) const;
  static constexpr size_t kTopConfidenceStackPairs = 64;

  /// Folds another node's state for the same itemset into this one
  /// (distributed aggregation, §1-2: summaries are merged up a hierarchy
  /// instead of shipping raw streams). Supports add; pair counters merge
  /// under this state's tracking policy; dirtiness is inherited from
  /// either side and the conditions are re-evaluated on the merged
  /// counters. Exact for the concatenation of the two streams up to the
  /// order-dependence inherent in monotone-dirty semantics (an itemset
  /// is merged-dirty iff some node-local prefix violated the conditions).
  void Merge(const ItemsetState& other, const ImplicationConditions& cond);

  /// sizeof plus the pair list's heap block.
  size_t MemoryBytes() const { return sizeof(*this) + b_counts_.HeapBytes(); }

  void SerializeTo(ByteWriter* out) const;
  static StatusOr<ItemsetState> Deserialize(ByteReader* in);

 private:
  uint64_t support_ = 0;
  PairList b_counts_;
  uint32_t mult_ = 0;
  bool dirty_ = false;
  bool mult_exceeded_ = false;
  bool unlimited_tracking_ = false;
  DirtyReason dirty_reason_ = DirtyReason::kNone;
};

}  // namespace implistat

#endif  // IMPLISTAT_CORE_CONDITIONS_H_
