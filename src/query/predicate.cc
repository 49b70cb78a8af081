#include "query/predicate.h"

#include <algorithm>

namespace implistat {

bool InSetPredicate::Matches(TupleRef tuple) const {
  ValueId v = tuple[attribute_];
  return std::find(values_.begin(), values_.end(), v) != values_.end();
}

bool AndPredicate::Matches(TupleRef tuple) const {
  for (const auto& part : parts_) {
    if (!part->Matches(tuple)) return false;
  }
  return true;
}

bool OrPredicate::Matches(TupleRef tuple) const {
  for (const auto& part : parts_) {
    if (part->Matches(tuple)) return true;
  }
  return false;
}

// Wire tags, part of the checkpoint format (append-only; see DESIGN.md §6).
namespace {
enum PredicateTag : uint8_t {
  kTrueTag = 0,
  kEqualsTag = 1,
  kInSetTag = 2,
  kRangeTag = 3,
  kAndTag = 4,
  kOrTag = 5,
  kNotTag = 6,
};

// Deep enough for any parser-built WHERE clause; shallow enough that a
// crafted checkpoint cannot blow the stack.
constexpr int kMaxPredicateDepth = 64;

StatusOr<std::shared_ptr<const Predicate>> DeserializeNode(
    ByteReader* in, int num_attributes, int depth) {
  if (depth > kMaxPredicateDepth) {
    return Status::InvalidArgument("predicate: tree too deep");
  }
  uint8_t tag;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&tag));
  auto read_attribute = [&](int* attribute) -> Status {
    uint64_t index;
    IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&index));
    if (index >= static_cast<uint64_t>(num_attributes)) {
      return Status::InvalidArgument(
          "predicate: attribute index out of schema range");
    }
    *attribute = static_cast<int>(index);
    return Status::OK();
  };
  auto read_children =
      [&](std::vector<std::shared_ptr<const Predicate>>* parts) -> Status {
    uint64_t n;
    IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&n));
    if (n > in->remaining()) {  // every child costs >= 1 byte
      return Status::InvalidArgument("predicate: implausible child count");
    }
    parts->reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      IMPLISTAT_ASSIGN_OR_RETURN(
          std::shared_ptr<const Predicate> child,
          DeserializeNode(in, num_attributes, depth + 1));
      parts->push_back(std::move(child));
    }
    return Status::OK();
  };
  switch (tag) {
    case kTrueTag:
      return std::shared_ptr<const Predicate>(
          std::make_shared<TruePredicate>());
    case kEqualsTag: {
      int attribute = 0;
      uint32_t value;
      IMPLISTAT_RETURN_NOT_OK(read_attribute(&attribute));
      IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&value));
      return std::shared_ptr<const Predicate>(
          std::make_shared<EqualsPredicate>(attribute, value));
    }
    case kInSetTag: {
      int attribute = 0;
      IMPLISTAT_RETURN_NOT_OK(read_attribute(&attribute));
      uint64_t n;
      IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&n));
      if (n > in->remaining() / sizeof(ValueId) + 1) {
        return Status::InvalidArgument("predicate: implausible set size");
      }
      std::vector<ValueId> values;
      values.reserve(n);
      for (uint64_t i = 0; i < n; ++i) {
        uint32_t v;
        IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&v));
        values.push_back(v);
      }
      return std::shared_ptr<const Predicate>(
          std::make_shared<InSetPredicate>(attribute, std::move(values)));
    }
    case kRangeTag: {
      int attribute = 0;
      uint32_t lo, hi;
      IMPLISTAT_RETURN_NOT_OK(read_attribute(&attribute));
      IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&lo));
      IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&hi));
      return std::shared_ptr<const Predicate>(
          std::make_shared<RangePredicate>(attribute, lo, hi));
    }
    case kAndTag: {
      std::vector<std::shared_ptr<const Predicate>> parts;
      IMPLISTAT_RETURN_NOT_OK(read_children(&parts));
      return std::shared_ptr<const Predicate>(
          std::make_shared<AndPredicate>(std::move(parts)));
    }
    case kOrTag: {
      std::vector<std::shared_ptr<const Predicate>> parts;
      IMPLISTAT_RETURN_NOT_OK(read_children(&parts));
      return std::shared_ptr<const Predicate>(
          std::make_shared<OrPredicate>(std::move(parts)));
    }
    case kNotTag: {
      IMPLISTAT_ASSIGN_OR_RETURN(
          std::shared_ptr<const Predicate> inner,
          DeserializeNode(in, num_attributes, depth + 1));
      return std::shared_ptr<const Predicate>(
          std::make_shared<NotPredicate>(std::move(inner)));
    }
    default:
      return Status::InvalidArgument("predicate: unknown node tag");
  }
}

}  // namespace

StatusOr<std::shared_ptr<const Predicate>> DeserializePredicate(
    ByteReader* in, int num_attributes) {
  if (num_attributes < 0) {
    return Status::InvalidArgument("predicate: negative schema width");
  }
  return DeserializeNode(in, num_attributes, 0);
}

void TruePredicate::SerializeTo(ByteWriter* out) const {
  out->PutU8(kTrueTag);
}

void EqualsPredicate::SerializeTo(ByteWriter* out) const {
  out->PutU8(kEqualsTag);
  out->PutVarint64(static_cast<uint64_t>(attribute_));
  out->PutU32(value_);
}

void InSetPredicate::SerializeTo(ByteWriter* out) const {
  out->PutU8(kInSetTag);
  out->PutVarint64(static_cast<uint64_t>(attribute_));
  out->PutVarint64(values_.size());
  for (ValueId v : values_) out->PutU32(v);
}

void RangePredicate::SerializeTo(ByteWriter* out) const {
  out->PutU8(kRangeTag);
  out->PutVarint64(static_cast<uint64_t>(attribute_));
  out->PutU32(lo_);
  out->PutU32(hi_);
}

void AndPredicate::SerializeTo(ByteWriter* out) const {
  out->PutU8(kAndTag);
  out->PutVarint64(parts_.size());
  for (const auto& part : parts_) part->SerializeTo(out);
}

void OrPredicate::SerializeTo(ByteWriter* out) const {
  out->PutU8(kOrTag);
  out->PutVarint64(parts_.size());
  for (const auto& part : parts_) part->SerializeTo(out);
}

void NotPredicate::SerializeTo(ByteWriter* out) const {
  out->PutU8(kNotTag);
  inner_->SerializeTo(out);
}

}  // namespace implistat
