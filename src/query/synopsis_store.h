// SynopsisStore: shared ownership of estimator state across registered
// queries.
//
// The paper's constrained-environment premise (§1, §4.6: memory is the
// scarce resource) breaks down when every registered query owns a private
// estimator — at thousands of overlapping queries both memory and the
// ingest hot path grow linearly even though many queries maintain the
// same statistic. The store fixes the ownership model: an estimator
// ("synopsis") is keyed by everything that determines the bytes it will
// ever hold —
//
//   (A attribute indices, B attribute indices, WHERE predicate bytes,
//    implication conditions, estimator config)
//
// — and reference-counted by the queries bound to it. Two queries whose
// keys match share one synopsis and observe the stream once; their
// answers are byte-identical to dedicated runs because the estimator is
// deterministic in (config, observation sequence) and the key pins both.
// The complement flag and the label are deliberately OUTSIDE the key:
// the same synopsis answers S and ~S, and labels are reporting-only.
//
// Entries are addressed by a dense SynopsisId assigned in first-creation
// order; ids never shift (a released entry leaves a tombstone), so
// checkpoints, cluster fold units and metrics can reference synopses
// stably. When the last reference drops, the estimator is destroyed and
// its memory returns — the tombstone costs a few hundred bytes, not a
// bitmap ensemble.

#ifndef IMPLISTAT_QUERY_SYNOPSIS_STORE_H_
#define IMPLISTAT_QUERY_SYNOPSIS_STORE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "query/query.h"
#include "stream/itemset.h"
#include "stream/schema.h"
#include "util/status_or.h"

namespace implistat {

using SynopsisId = int;

/// Canonical key bytes for a synopsis: an unambiguous serialization of
/// everything that determines estimator state. Specs that agree on this
/// key would hold bit-identical estimators after any stream, so they can
/// share one.
std::string CanonicalSynopsisKey(const AttributeSet& a_set,
                                 const AttributeSet& b_set,
                                 const Predicate* where,
                                 const ImplicationConditions& conditions,
                                 const EstimatorConfig& config);

/// One shared synopsis: the projection packers, the WHERE filter and the
/// estimator every bound query reads through. `estimator == nullptr`
/// marks a tombstone (all references released).
struct SynopsisEntry {
  std::string key;
  AttributeSet a_set;
  AttributeSet b_set;
  ItemsetPacker a_packer;
  ItemsetPacker b_packer;
  std::shared_ptr<const Predicate> where;  // null = unconditional
  ImplicationConditions conditions;
  EstimatorConfig config;
  std::shared_ptr<ImplicationEstimator> estimator;
  int refcount = 0;

  bool live() const { return estimator != nullptr; }
};

class SynopsisStore {
 public:
  explicit SynopsisStore(const Schema* schema) : schema_(schema) {}

  SynopsisStore(const SynopsisStore&) = delete;
  SynopsisStore& operator=(const SynopsisStore&) = delete;
  SynopsisStore(SynopsisStore&&) = default;
  SynopsisStore& operator=(SynopsisStore&&) = default;

  /// The live entry whose key matches, or -1. Tombstones and entries
  /// shadowed by an earlier live identical key (possible after restoring
  /// a dedicated-layout checkpoint) are not found.
  SynopsisId Find(const std::string& key) const;

  /// Builds a new entry (estimator constructed from conditions + config)
  /// with refcount 0; the caller binds queries via AddRef. The key is
  /// registered for Find only if no live entry already claims it.
  StatusOr<SynopsisId> Create(const AttributeSet& a_set,
                              const AttributeSet& b_set,
                              std::shared_ptr<const Predicate> where,
                              const ImplicationConditions& conditions,
                              const EstimatorConfig& config);

  /// Restore-path helper: appends a dead entry (no key, no estimator) so
  /// ids recreated from a checkpoint line up with its dense numbering.
  SynopsisId CreateTombstone();

  void AddRef(SynopsisId id);

  /// Drops one reference; at zero the estimator is destroyed (memory
  /// returns) and the id becomes a tombstone. Ids never shift. If the
  /// entry held the key's Find slot, the lowest-id live duplicate takes
  /// it over.
  void Release(SynopsisId id);

  int size() const { return static_cast<int>(entries_.size()); }
  int num_live() const;

  SynopsisEntry& entry(SynopsisId id) { return entries_[id]; }
  const SynopsisEntry& entry(SynopsisId id) const { return entries_[id]; }
  std::vector<SynopsisEntry>& entries() { return entries_; }
  const std::vector<SynopsisEntry>& entries() const { return entries_; }

  /// Sum of MemoryBytes over live synopses — each shared estimator
  /// counted once, which is the point of the store.
  uint64_t TotalMemoryBytes() const;

  void Clear();

 private:
  const Schema* schema_;
  std::vector<SynopsisEntry> entries_;
  std::unordered_map<std::string, SynopsisId> by_key_;
};

}  // namespace implistat

#endif  // IMPLISTAT_QUERY_SYNOPSIS_STORE_H_
