#include "baseline/ilc.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace implistat {

namespace {
constexpr double kConfidenceEpsilon = 1e-9;
}  // namespace

Ilc::Ilc(ImplicationConditions conditions, IlcOptions options)
    : conditions_(conditions),
      options_(options),
      width_(static_cast<uint64_t>(std::ceil(1.0 / options.epsilon))) {
  IMPLISTAT_CHECK(conditions_.Validate().ok()) << "invalid conditions";
  IMPLISTAT_CHECK(options_.epsilon > 0.0 && options_.epsilon < 1.0);
}

void Ilc::Observe(ItemsetKey a, ItemsetKey b) {
  ++count_;
  if (!dirty_.contains(a)) {
    auto it = entries_.find(a);
    if (it == entries_.end()) {
      Entry entry;
      entry.count = 1;
      entry.delta = current_bucket_ - 1;
      entry.pairs.push_back(PairEntry{b, 1, current_bucket_ - 1});
      entries_.emplace(a, std::move(entry));
    } else {
      Entry& entry = it->second;
      ++entry.count;
      auto pair_it =
          std::find_if(entry.pairs.begin(), entry.pairs.end(),
                       [b](const PairEntry& p) { return p.b == b; });
      if (pair_it != entry.pairs.end()) {
        ++pair_it->count;
      } else {
        entry.pairs.push_back(PairEntry{b, 1, current_bucket_ - 1});
      }
      if (ViolatesConditions(entry)) {
        // Mark dirty and delete all pair entries for this itemset (§5.1).
        dirty_.insert(a);
        entries_.erase(it);
      }
    }
  }
  if (count_ % width_ == 0) {
    PruneBucket();
    ++current_bucket_;
  }
}

bool Ilc::ViolatesConditions(const Entry& entry) const {
  if (entry.count < conditions_.min_support) return false;
  if (entry.pairs.size() > conditions_.max_multiplicity &&
      conditions_.strict_multiplicity) {
    return true;
  }
  // Top-c confidence over the lossy pair counters.
  std::vector<uint64_t> counts;
  counts.reserve(entry.pairs.size());
  for (const PairEntry& p : entry.pairs) counts.push_back(p.count);
  size_t take = std::min<size_t>(conditions_.confidence_c, counts.size());
  std::partial_sort(counts.begin(), counts.begin() + take, counts.end(),
                    std::greater<uint64_t>());
  uint64_t sum = 0;
  for (size_t i = 0; i < take; ++i) sum += counts[i];
  double conf = static_cast<double>(sum) / static_cast<double>(entry.count);
  return conf + kConfidenceEpsilon < conditions_.min_top_confidence;
}

void Ilc::PruneBucket() {
  for (auto it = entries_.begin(); it != entries_.end();) {
    Entry& entry = it->second;
    if (entry.count + entry.delta <= current_bucket_) {
      // Below the lossy threshold: drop the itemset and its pair entries.
      it = entries_.erase(it);
      continue;
    }
    // Pair entries follow the same pruning rule independently.
    std::erase_if(entry.pairs, [this](const PairEntry& p) {
      return p.count + p.delta <= current_bucket_;
    });
    ++it;
  }
}

double Ilc::EstimateImplicationCount() const {
  uint64_t qualifying = 0;
  for (const auto& [key, entry] : entries_) {
    if (entry.count >= conditions_.min_support) ++qualifying;
  }
  return static_cast<double>(qualifying);
}

std::vector<ItemsetKey> Ilc::ImplicatedItemsets() const {
  std::vector<ItemsetKey> out;
  for (const auto& [key, entry] : entries_) {
    if (entry.count >= conditions_.min_support) out.push_back(key);
  }
  return out;
}

size_t Ilc::MemoryBytes() const {
  size_t bytes = sizeof(*this) +
                 entries_.bucket_count() * sizeof(void*) +
                 dirty_.bucket_count() * sizeof(void*);
  for (const auto& [key, entry] : entries_) {
    bytes += sizeof(key) + sizeof(Entry) +
             entry.pairs.capacity() * sizeof(PairEntry) + 2 * sizeof(void*);
  }
  bytes += dirty_.size() * (sizeof(ItemsetKey) + 2 * sizeof(void*));
  return bytes;
}

StatusOr<std::string> Ilc::SerializeState() const {
  ByteWriter out;
  conditions_.SerializeTo(&out);
  out.PutDouble(options_.epsilon);
  out.PutVarint64(count_);
  out.PutVarint64(entries_.size());
  for (const auto& [key, entry] : entries_) {
    out.PutU64(key);
    out.PutVarint64(entry.count);
    out.PutVarint64(entry.delta);
    out.PutVarint64(entry.pairs.size());
    for (const PairEntry& p : entry.pairs) {
      out.PutU64(p.b);
      out.PutVarint64(p.count);
      out.PutVarint64(p.delta);
    }
  }
  out.PutVarint64(dirty_.size());
  for (ItemsetKey key : dirty_) out.PutU64(key);
  return WrapSnapshot(SnapshotKind::kIlc, out.Release());
}

Status Ilc::RestoreState(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(std::string_view payload,
                             UnwrapSnapshot(snapshot, SnapshotKind::kIlc));
  ByteReader in(payload);
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions conditions,
                             ImplicationConditions::Deserialize(&in));
  IlcOptions options;
  IMPLISTAT_RETURN_NOT_OK(in.ReadDouble(&options.epsilon));
  // Positively phrased so NaN fails: the constructor CHECK-aborts on a
  // bad ε, so a corrupt snapshot must be rejected here with a Status.
  if (!(options.epsilon > 0.0 && options.epsilon < 1.0)) {
    return Status::InvalidArgument("ILC: bad epsilon");
  }
  const uint64_t width =
      static_cast<uint64_t>(std::ceil(1.0 / options.epsilon));
  uint64_t count;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&count));
  uint64_t num_entries;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_entries));
  if (num_entries > in.remaining() / 11 + 1) {
    return Status::InvalidArgument("ILC: implausible entry count");
  }
  std::unordered_map<ItemsetKey, Entry> entries;
  entries.reserve(num_entries);
  for (uint64_t i = 0; i < num_entries; ++i) {
    ItemsetKey key;
    Entry entry;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&key));
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&entry.count));
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&entry.delta));
    uint64_t num_pairs;
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_pairs));
    if (num_pairs > in.remaining() / 10 + 1) {
      return Status::InvalidArgument("ILC: implausible pair count");
    }
    entry.pairs.reserve(num_pairs);
    for (uint64_t j = 0; j < num_pairs; ++j) {
      PairEntry p;
      IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&p.b));
      IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&p.count));
      IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&p.delta));
      entry.pairs.push_back(p);
    }
    if (!entries.emplace(key, std::move(entry)).second) {
      return Status::InvalidArgument("ILC: duplicate entry key");
    }
  }
  uint64_t num_dirty;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_dirty));
  if (num_dirty > in.remaining() / 8 + 1) {
    return Status::InvalidArgument("ILC: implausible dirty count");
  }
  std::unordered_set<ItemsetKey> dirty;
  dirty.reserve(num_dirty);
  for (uint64_t i = 0; i < num_dirty; ++i) {
    ItemsetKey key;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&key));
    if (entries.contains(key)) {
      return Status::InvalidArgument("ILC: key both live and dirty");
    }
    if (!dirty.insert(key).second) {
      return Status::InvalidArgument("ILC: duplicate dirty key");
    }
  }
  if (!in.AtEnd()) return Status::InvalidArgument("ILC: trailing bytes");
  conditions_ = conditions;
  options_ = options;
  width_ = width;
  count_ = count;
  // The bucket clock is derived, not stored: Observe advances it right
  // after the count_ % width_ == 0 prune, so this is the unique value
  // consistent with count_.
  current_bucket_ = count_ / width_ + 1;
  entries_ = std::move(entries);
  dirty_ = std::move(dirty);
  return Status::OK();
}

Status Ilc::Merge(const Ilc& other) {
  if (!(conditions_ == other.conditions_)) {
    return Status::InvalidArgument("ILC::Merge: conditions differ");
  }
  if (options_.epsilon != other.options_.epsilon) {
    return Status::InvalidArgument("ILC::Merge: epsilon differs");
  }
  // Manku–Motwani distributed merge: frequencies add; an entry absent on
  // one side could have been pruned there with count up to bucket-1, so
  // the missing side contributes that much to Δ. Dirtiness is permanent
  // on either side.
  const uint64_t my_slack = current_bucket_ - 1;
  const uint64_t other_slack = other.current_bucket_ - 1;
  for (ItemsetKey key : other.dirty_) {
    dirty_.insert(key);
    entries_.erase(key);
  }
  for (const auto& [key, other_entry] : other.entries_) {
    if (dirty_.contains(key)) continue;
    auto [it, inserted] = entries_.try_emplace(key);
    Entry& entry = it->second;
    if (inserted) {
      entry.count = other_entry.count;
      entry.delta = other_entry.delta + my_slack;
      entry.pairs = other_entry.pairs;
      for (PairEntry& p : entry.pairs) p.delta += my_slack;
    } else {
      entry.count += other_entry.count;
      entry.delta += other_entry.delta;
      for (const PairEntry& op : other_entry.pairs) {
        auto pair_it =
            std::find_if(entry.pairs.begin(), entry.pairs.end(),
                         [&op](const PairEntry& p) { return p.b == op.b; });
        if (pair_it != entry.pairs.end()) {
          pair_it->count += op.count;
          pair_it->delta += op.delta;
        } else {
          entry.pairs.push_back(
              PairEntry{op.b, op.count, op.delta + my_slack});
        }
      }
    }
    if (ViolatesConditions(entry)) {
      dirty_.insert(key);
      entries_.erase(it);
    }
  }
  // Entries the other side never saw pick up its pruning slack.
  for (auto& [key, entry] : entries_) {
    if (!other.entries_.contains(key) && !other.dirty_.contains(key)) {
      entry.delta += other_slack;
      for (PairEntry& p : entry.pairs) p.delta += other_slack;
    }
  }
  count_ += other.count_;
  current_bucket_ = count_ / width_ + 1;
  PruneBucket();
  return Status::OK();
}

Status Ilc::MergeFrom(const ImplicationEstimator& other) {
  if (const auto* ilc = dynamic_cast<const Ilc*>(&other)) {
    return Merge(*ilc);
  }
  return Status::InvalidArgument(name() + ": cannot merge " + other.name() +
                                 " state");
}

}  // namespace implistat
