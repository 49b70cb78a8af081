#include "core/conditions.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>

namespace implistat {

namespace {
// Tolerance for the confidence comparison: counters are integers, so
// γ_c(a) = sum/support; a tiny slack keeps e.g. 0.9·support == sum from
// flapping on rounding.
constexpr double kConfidenceEpsilon = 1e-9;
}  // namespace

Status ImplicationConditions::Validate() const {
  if (max_multiplicity == 0) {
    return Status::InvalidArgument("max_multiplicity must be >= 1");
  }
  if (min_support == 0) {
    return Status::InvalidArgument(
        "min_support must be >= 1 (it is an absolute tuple count)");
  }
  if (!(min_top_confidence > 0.0) || min_top_confidence > 1.0) {
    return Status::InvalidArgument("min_top_confidence must be in (0, 1]");
  }
  if (confidence_c == 0) {
    return Status::InvalidArgument("confidence_c must be >= 1");
  }
  return Status::OK();
}

PairList::PairList(const PairList& other) : PairList() { *this = other; }

PairList& PairList::operator=(const PairList& other) {
  if (this == &other) return *this;
  Release();
  // Like a vector copy, a spilled copy holds exactly its pairs.
  Reserve(other.size_);
  std::memcpy(data(), other.data(), other.size_ * sizeof(BCount));
  size_ = other.size_;
  return *this;
}

PairList::PairList(PairList&& other) noexcept
    : size_(other.size_), capacity_(other.capacity_) {
  if (spilled()) {
    heap_ = other.heap_;
  } else {
    one_ = other.one_;
  }
  other.size_ = 0;
  other.capacity_ = 1;
}

PairList& PairList::operator=(PairList&& other) noexcept {
  if (this == &other) return *this;
  FreeHeap();
  size_ = other.size_;
  capacity_ = other.capacity_;
  if (spilled()) {
    heap_ = other.heap_;
  } else {
    one_ = other.one_;
  }
  other.size_ = 0;
  other.capacity_ = 1;
  return *this;
}

void PairList::PushBack(ItemsetKey b, uint64_t count) {
  if (size_ == capacity_) Grow(size_t{capacity_} * 2);
  data()[size_++] = BCount{b, count};
}

void PairList::Reserve(size_t n) {
  if (n > capacity_) Grow(n);
}

void PairList::Grow(size_t capacity) {
  BCount* block = new BCount[capacity];
  std::memcpy(block, data(), size_ * sizeof(BCount));
  FreeHeap();
  heap_ = block;
  capacity_ = static_cast<uint32_t>(capacity);
}

void PairList::Release() {
  FreeHeap();
  size_ = 0;
  capacity_ = 1;
}

bool ItemsetState::Observe(ItemsetKey b, const ImplicationConditions& cond) {
  ++support_;
  if (dirty_) return true;  // monotone: stays a non-implication

  if (!mult_exceeded_) {
    BCount* it = std::find_if(b_counts_.begin(), b_counts_.end(),
                              [b](const BCount& e) { return e.b == b; });
    if (it != b_counts_.end()) {
      ++it->count;
    } else if (b_counts_.size() < cond.max_multiplicity) {
      b_counts_.PushBack(b, 1);
      if (mult_ <= cond.max_multiplicity) ++mult_;
    } else if (cond.strict_multiplicity) {
      // A (K+1)-th distinct b: multiplicity condition is violated for good;
      // the individual pair counters are no longer needed.
      mult_exceeded_ = true;
      if (mult_ <= cond.max_multiplicity) ++mult_;
      b_counts_.Release();
    } else if (unlimited_tracking_) {
      b_counts_.PushBack(b, 1);
      if (mult_ <= cond.max_multiplicity) ++mult_;
    } else {
      // Tracking-bound mode: admit the newcomer only by evicting a counter
      // that is still at 1 (an established counter cannot be displaced by
      // a single occurrence). The support counter above is unaffected.
      if (mult_ <= cond.max_multiplicity) ++mult_;
      BCount* victim =
          std::find_if(b_counts_.begin(), b_counts_.end(),
                       [](const BCount& e) { return e.count == 1; });
      if (victim != b_counts_.end()) victim->b = b;  // its count stays 1
    }
  }

  if (support_ < cond.min_support) return false;
  // Support condition holds: any violation of the other two conditions now
  // makes the itemset a non-implication forever (§3.1.1).
  if (mult_exceeded_ ||
      TopConfidence(cond.confidence_c) + kConfidenceEpsilon <
          cond.min_top_confidence) {
    dirty_ = true;
    dirty_reason_ =
        mult_exceeded_ ? DirtyReason::kMultiplicity : DirtyReason::kConfidence;
    b_counts_.Release();
  }
  return dirty_;
}

double ItemsetState::TopConfidence(uint32_t c) const {
  const size_t n = b_counts_.size();
  if (support_ == 0 || n == 0) return 0.0;
  uint64_t sum = 0;
  if (c >= n) {
    for (const BCount& e : b_counts_) sum += e.count;
  } else {
    // Partially sort a copy of the counts. K is small, so the copy fits on
    // the stack; only longer lists (unlimited tracking) take the heap.
    uint64_t stack[kTopConfidenceStackPairs];
    std::unique_ptr<uint64_t[]> heap;
    uint64_t* counts = stack;
    if (n > kTopConfidenceStackPairs) {
      heap.reset(new uint64_t[n]);
      counts = heap.get();
    }
    std::transform(b_counts_.begin(), b_counts_.end(), counts,
                   [](const BCount& e) { return e.count; });
    std::partial_sort(counts, counts + c, counts + n,
                      std::greater<uint64_t>());
    for (size_t i = 0; i < c; ++i) sum += counts[i];
  }
  // An integer sum: the quotient does not depend on the summation order.
  return static_cast<double>(sum) / static_cast<double>(support_);
}

bool operator==(const ImplicationConditions& a,
                const ImplicationConditions& b) {
  return a.max_multiplicity == b.max_multiplicity &&
         a.min_support == b.min_support &&
         a.min_top_confidence == b.min_top_confidence &&
         a.confidence_c == b.confidence_c &&
         a.strict_multiplicity == b.strict_multiplicity;
}

void ImplicationConditions::SerializeTo(ByteWriter* out) const {
  out->PutU32(max_multiplicity);
  out->PutVarint64(min_support);
  out->PutDouble(min_top_confidence);
  out->PutU32(confidence_c);
  out->PutBool(strict_multiplicity);
}

StatusOr<ImplicationConditions> ImplicationConditions::Deserialize(
    ByteReader* in) {
  ImplicationConditions cond;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&cond.max_multiplicity));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&cond.min_support));
  IMPLISTAT_RETURN_NOT_OK(in->ReadDouble(&cond.min_top_confidence));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&cond.confidence_c));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&cond.strict_multiplicity));
  IMPLISTAT_RETURN_NOT_OK(cond.Validate());
  return cond;
}

void ItemsetState::Merge(const ItemsetState& other,
                         const ImplicationConditions& cond) {
  support_ += other.support_;
  if (other.dirty_) {
    dirty_ = true;
    if (dirty_reason_ == DirtyReason::kNone) dirty_reason_ = other.dirty_reason_;
  }
  if (other.mult_exceeded_) mult_exceeded_ = true;
  if (dirty_) {
    b_counts_.Release();
    return;
  }
  // Fold the other side's pair counters under this state's policy. The
  // per-pair counts add exactly when both sides tracked the pair.
  if (!mult_exceeded_) {
    for (const auto& [b, count] : other.b_counts_) {
      BCount* it = std::find_if(b_counts_.begin(), b_counts_.end(),
                                [b = b](const BCount& e) { return e.b == b; });
      if (it != b_counts_.end()) {
        it->count += count;
      } else if (b_counts_.size() < cond.max_multiplicity ||
                 unlimited_tracking_) {
        b_counts_.PushBack(b, count);
        if (mult_ <= cond.max_multiplicity) ++mult_;
      } else if (cond.strict_multiplicity) {
        mult_exceeded_ = true;
        if (mult_ <= cond.max_multiplicity) ++mult_;
        b_counts_.Release();
        break;
      } else {
        // Tracking-bound mode: displace a counter this newcomer outweighs.
        BCount* victim =
            std::min_element(b_counts_.begin(), b_counts_.end(),
                             [](const BCount& x, const BCount& y) {
                               return x.count < y.count;
                             });
        if (mult_ <= cond.max_multiplicity) ++mult_;
        if (victim->count < count) *victim = BCount{b, count};
      }
    }
  }
  // Re-evaluate the conditions on the merged counters.
  if (support_ >= cond.min_support &&
      (mult_exceeded_ ||
       TopConfidence(cond.confidence_c) + 1e-9 < cond.min_top_confidence)) {
    dirty_ = true;
    if (dirty_reason_ == DirtyReason::kNone) {
      dirty_reason_ = mult_exceeded_ ? DirtyReason::kMultiplicity
                                     : DirtyReason::kConfidence;
    }
    b_counts_.Release();
  }
}

void ItemsetState::SerializeTo(ByteWriter* out) const {
  out->PutVarint64(support_);
  out->PutU32(mult_);
  out->PutBool(dirty_);
  out->PutBool(mult_exceeded_);
  out->PutBool(unlimited_tracking_);
  out->PutVarint64(b_counts_.size());
  for (const auto& [b, count] : b_counts_) {
    out->PutU64(b);
    out->PutVarint64(count);
  }
}

StatusOr<ItemsetState> ItemsetState::Deserialize(ByteReader* in) {
  ItemsetState state;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&state.support_));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&state.mult_));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&state.dirty_));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&state.mult_exceeded_));
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&state.unlimited_tracking_));
  uint64_t pairs;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&pairs));
  // Each pair costs at least 9 encoded bytes (fixed u64 + 1-byte varint):
  // bounding the count by the bytes actually present keeps a corrupt
  // length from forcing a huge reserve before the reads fail.
  if (pairs > (uint64_t{1} << 24) || pairs > in->remaining() / 9) {
    return Status::InvalidArgument("ItemsetState: implausible pair count");
  }
  state.b_counts_.Reserve(pairs);
  for (uint64_t i = 0; i < pairs; ++i) {
    ItemsetKey b;
    uint64_t count;
    IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&b));
    IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&count));
    state.b_counts_.PushBack(b, count);
  }
  return state;
}

}  // namespace implistat
