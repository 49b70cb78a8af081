#include "query/engine.h"

#include <algorithm>

#include "obs/metrics.h"
#include "query/parser.h"
#include "util/envelope.h"
#include "util/fileio.h"
#include "util/serde.h"

namespace implistat {

namespace {

// Checkpoint instrumentation (PR 1 registry). Registered lazily on the
// first checkpoint/restore — this is a cold path, so no flush batching.
struct CheckpointMetrics {
  obs::Counter* checkpoints_total;
  obs::Counter* restores_total;
  obs::Histogram* bytes;
  obs::Histogram* checkpoint_duration_ns;
  obs::Histogram* restore_duration_ns;

  static const CheckpointMetrics& Get() {
    static const CheckpointMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return CheckpointMetrics{
          reg.GetCounter("implistat_checkpoints_total",
                         "Engine checkpoints successfully written"),
          reg.GetCounter("implistat_restores_total",
                         "Engine restores successfully completed"),
          reg.GetHistogram("implistat_checkpoint_bytes",
                           "Serialized checkpoint size in bytes "
                           "(envelope included)"),
          reg.GetHistogram("implistat_checkpoint_duration_ns",
                           "Wall time of QueryEngine::Checkpoint — "
                           "serialize, atomic write, fsync"),
          reg.GetHistogram("implistat_restore_duration_ns",
                           "Wall time of QueryEngine::Restore — read, "
                           "decode, re-register"),
      };
    }();
    return metrics;
  }
};

// Multi-query sharing instrumentation.
struct SharingMetrics {
  obs::Counter* queries_shared_total;
  obs::Counter* derived_answers_total;

  static const SharingMetrics& Get() {
    static const SharingMetrics metrics = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return SharingMetrics{
          reg.GetCounter("implistat_queries_shared_total",
                         "Registrations answered by an existing synopsis "
                         "(exact key hit)"),
          reg.GetCounter("implistat_derived_answers_total",
                         "Answers produced from entailment bounds instead "
                         "of a dedicated estimator"),
      };
    }();
    return metrics;
  }
};

// The sources a derived query holds references on, deduplicated (the
// same synopsis can serve as both upper source and F0 cap).
std::vector<SynopsisId> DistinctSources(const DerivationSources& d) {
  std::vector<SynopsisId> out;
  for (SynopsisId id : {d.lower, d.upper, d.f0}) {
    if (id == -1) continue;
    if (std::find(out.begin(), out.end(), id) == out.end()) out.push_back(id);
  }
  return out;
}

// Query-record flag bits in the kQueryEngineV2 container.
constexpr uint8_t kFlagActive = 1;
constexpr uint8_t kFlagAllowDerived = 2;

}  // namespace

uint64_t SchemaFingerprint(const Schema& schema) {
  // Digest an unambiguous encoding (lengths prefixed) so ("ab","c")
  // cannot collide with ("a","bc").
  ByteWriter buf;
  buf.PutVarint64(static_cast<uint64_t>(schema.num_attributes()));
  for (int i = 0; i < schema.num_attributes(); ++i) {
    const AttributeDef& attr = schema.attribute(i);
    buf.PutLengthPrefixed(attr.name);
    buf.PutVarint64(attr.cardinality);
  }
  const std::string bytes = buf.Release();
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64
  for (char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

QueryEngine::QueryEngine(Schema schema)
    : schema_(std::move(schema)), store_(&schema_) {}

StatusOr<QueryId> QueryEngine::RegisterSql(
    std::string_view text,
    const std::vector<ValueDictionary>* dictionaries) {
  IMPLISTAT_ASSIGN_OR_RETURN(ParsedQuery parsed,
                             ParseImplicationQuery(text));
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationQuerySpec spec,
                             BindQuery(parsed, schema_, dictionaries));
  spec.label = std::string(text);
  return Register(std::move(spec));
}

StatusOr<QueryId> QueryEngine::Register(ImplicationQuerySpec spec) {
  if (spec.a_attributes.empty()) {
    return Status::InvalidArgument("query needs at least one A attribute");
  }
  if (spec.b_attributes.empty()) {
    return Status::InvalidArgument("query needs at least one B attribute");
  }
  IMPLISTAT_RETURN_NOT_OK(spec.conditions.Validate());
  IMPLISTAT_ASSIGN_OR_RETURN(
      AttributeSet a_set, AttributeSet::FromNames(schema_, spec.a_attributes));
  IMPLISTAT_ASSIGN_OR_RETURN(
      AttributeSet b_set, AttributeSet::FromNames(schema_, spec.b_attributes));
  if (!a_set.DisjointFrom(b_set)) {
    return Status::InvalidArgument("A and B attribute sets must be disjoint");
  }
  if (spec.complement &&
      (spec.estimator.kind == EstimatorKind::kIlc ||
       spec.estimator.kind == EstimatorKind::kIss)) {
    return Status::InvalidArgument(
        "complement queries need an estimator that answers ~S "
        "(NIPS/CI, Exact or DS)");
  }
  if (!spec.label.empty()) {
    for (const RegisteredQuery& query : queries_) {
      if (query.active && query.spec.label == spec.label) {
        return Status::AlreadyExists(
            "a registered query already carries this label");
      }
    }
  }

  RegisteredQuery query;
  // Exact-key hit: an existing synopsis already maintains precisely
  // this statistic — bind to it and skip the allocation entirely.
  const std::string key = CanonicalSynopsisKey(
      a_set, b_set, spec.where.get(), spec.conditions, spec.estimator);
  const SynopsisId hit = store_.Find(key);
  if (hit != -1) {
    store_.AddRef(hit);
    query.binding = QueryBinding::kShared;
    query.synopsis = hit;
    query.spec = std::move(spec);
    queries_.push_back(std::move(query));
    SharingMetrics::Get().queries_shared_total->Increment();
    return static_cast<QueryId>(queries_.size()) - 1;
  }
  if (spec.allow_derived) {
    const DerivationSources sources =
        DeriveFromSynopses(a_set, b_set, spec.where.get(), spec.conditions,
                           spec.estimator, spec.complement, store_);
    if (sources.viable()) {
      for (SynopsisId id : DistinctSources(sources)) store_.AddRef(id);
      query.binding = QueryBinding::kDerived;
      query.synopsis = sources.primary();
      query.derivation = sources;
      query.spec = std::move(spec);
      queries_.push_back(std::move(query));
      return static_cast<QueryId>(queries_.size()) - 1;
    }
  }

  IMPLISTAT_ASSIGN_OR_RETURN(
      SynopsisId sid,
      store_.Create(a_set, b_set, spec.where, spec.conditions,
                    spec.estimator));
  store_.AddRef(sid);
  query.binding = QueryBinding::kOwner;
  query.synopsis = sid;
  query.spec = std::move(spec);
  queries_.push_back(std::move(query));
  return static_cast<QueryId>(queries_.size()) - 1;
}

Status QueryEngine::CheckQueryId(QueryId id) const {
  if (id < 0 || id >= num_queries()) {
    return Status::NotFound("no such query id");
  }
  if (!queries_[id].active) {
    return Status::NotFound("query was deregistered");
  }
  return Status::OK();
}

const SynopsisEntry& QueryEngine::EntryOf(const RegisteredQuery& query) const {
  return store_.entry(query.synopsis);
}

Status QueryEngine::Deregister(QueryId id) {
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  RegisteredQuery& query = queries_[id];
  if (query.binding == QueryBinding::kDerived) {
    for (SynopsisId sid : DistinctSources(query.derivation)) {
      store_.Release(sid);
    }
  } else {
    store_.Release(query.synopsis);
  }
  query.active = false;
  return Status::OK();
}

void QueryEngine::ObserveTuple(TupleRef tuple) {
  ++tuples_;
  // Synopses, not queries: a statistic shared by n queries filters and
  // packs the tuple once.
  for (SynopsisEntry& entry : store_.entries()) {
    if (!entry.live()) continue;
    if (entry.where != nullptr && !entry.where->Matches(tuple)) continue;
    entry.estimator->Observe(entry.a_packer.Pack(tuple),
                             entry.b_packer.Pack(tuple));
  }
  // Off the per-tuple path in effect: Tick is one compare against the
  // earliest due epoch (bench/trigger_overhead prices this).
  if (triggers_ != nullptr) triggers_->Tick(tuples_);
}

namespace {
Status AggregateRefusesWrites() {
  return Status::FailedPrecondition(
      "this engine serves an aggregate that is refolded from its peers; "
      "send writes to an edge");
}
}  // namespace

Status QueryEngine::ObserveStream(TupleStream& stream) {
  if (aggregate_) return AggregateRefusesWrites();
  if (stream.schema().num_attributes() != schema_.num_attributes()) {
    return Status::InvalidArgument("stream schema width mismatch");
  }
  // Batched drain: per-synopsis pair buffers feed the estimators through
  // ObserveBatch, amortizing the virtual dispatch and enabling the
  // NipsCi fast path. Each estimator still sees its elements in exact
  // stream order, so answers are identical to the per-tuple ObserveTuple
  // path.
  constexpr size_t kBatch = 256;
  std::vector<SynopsisEntry>& entries = store_.entries();
  std::vector<std::vector<ItemsetPair>> pending(entries.size());
  for (auto& batch : pending) batch.reserve(kBatch);
  while (auto tuple = stream.Next()) {
    ++tuples_;
    for (size_t i = 0; i < entries.size(); ++i) {
      SynopsisEntry& entry = entries[i];
      if (!entry.live()) continue;
      if (entry.where != nullptr && !entry.where->Matches(*tuple)) continue;
      pending[i].push_back(ItemsetPair{entry.a_packer.Pack(*tuple),
                                       entry.b_packer.Pack(*tuple)});
      if (pending[i].size() == kBatch) {
        entry.estimator->ObserveBatch(pending[i]);
        pending[i].clear();
      }
    }
  }
  for (size_t i = 0; i < entries.size(); ++i) {
    if (!pending[i].empty()) entries[i].estimator->ObserveBatch(pending[i]);
  }
  // Triggers evaluate at the stream edge, once every synopsis has seen
  // its full batch — estimates are fresh and epoch crossings inside the
  // batch collapse to one evaluation (see TriggerEngine::Evaluate).
  if (triggers_ != nullptr) triggers_->Tick(tuples_);
  return Status::OK();
}

StatusOr<double> QueryEngine::Answer(QueryId id) const {
  // Deliberately NOT AnswerEx minus fields: the std-error readout runs a
  // leave-one-out pass over the whole ensemble (two FM inversions per
  // bitmap), which dwarfs the point estimate. Estimate-only callers —
  // trigger evaluation polls this every epoch — skip it entirely.
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  const RegisteredQuery& query = queries_[id];
  if (query.binding == QueryBinding::kDerived) {
    const DerivedBounds bounds =
        EvaluateDerivedBounds(query.derivation, store_);
    SharingMetrics::Get().derived_answers_total->Increment();
    return (bounds.lower + bounds.upper) / 2;
  }
  const ImplicationEstimator* est = EntryOf(query).estimator.get();
  if (query.spec.complement) {
    const double non_impl = est->EstimateNonImplicationCount();
    if (non_impl < 0) {
      return Status::FailedPrecondition(
          "estimator cannot answer non-implication counts");
    }
    return non_impl;
  }
  return est->EstimateImplicationCount();
}

QueryId QueryEngine::FindActiveByLabel(std::string_view label) const {
  if (label.empty()) return -1;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].active && queries_[i].spec.label == label) {
      return static_cast<QueryId>(i);
    }
  }
  // Positional fallback: `q<N>` names the N-th registered query when no
  // explicit label claims the name.
  if (label.size() >= 2 && label[0] == 'q') {
    uint64_t id = 0;
    for (size_t i = 1; i < label.size(); ++i) {
      if (label[i] < '0' || label[i] > '9') return -1;
      id = id * 10 + static_cast<uint64_t>(label[i] - '0');
      if (id > queries_.size()) return -1;  // also caps overflow
    }
    if (id < queries_.size() && queries_[id].active) {
      return static_cast<QueryId>(id);
    }
  }
  return -1;
}

bool QueryEngine::LabelSource::HasLabel(std::string_view label) const {
  return engine_->FindActiveByLabel(label) >= 0;
}

StatusOr<double> QueryEngine::LabelSource::EstimateForLabel(
    std::string_view label) const {
  QueryId id = engine_->FindActiveByLabel(label);
  if (id < 0) {
    return Status::NotFound("no active query labeled '" + std::string(label) +
                            "'");
  }
  return engine_->Answer(id);
}

StatusOr<std::string> QueryEngine::InstallTrigger(std::string_view statement) {
  if (triggers_ == nullptr) {
    triggers_ = std::make_unique<cql::TriggerEngine>(&label_source_);
  }
  return triggers_->Install(statement, tuples_);
}

std::vector<cql::TriggerFiring> QueryEngine::TakeTriggerFirings() {
  if (triggers_ == nullptr) return {};
  return triggers_->TakeFirings();
}

StatusOr<QueryAnswer> QueryEngine::AnswerEx(QueryId id) const {
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  const RegisteredQuery& query = queries_[id];
  QueryAnswer answer;
  if (query.binding == QueryBinding::kDerived) {
    const DerivedBounds bounds =
        EvaluateDerivedBounds(query.derivation, store_);
    answer.derived = true;
    answer.lower = bounds.lower;
    answer.upper = bounds.upper;
    answer.estimate = (bounds.lower + bounds.upper) / 2;
    answer.std_error = (bounds.upper - bounds.lower) / 2;
    SharingMetrics::Get().derived_answers_total->Increment();
    return answer;
  }
  const ImplicationEstimator* est = EntryOf(query).estimator.get();
  if (query.spec.complement) {
    const double non_impl = est->EstimateNonImplicationCount();
    if (non_impl < 0) {
      return Status::FailedPrecondition(
          "estimator cannot answer non-implication counts");
    }
    answer.estimate = non_impl;
  } else {
    answer.estimate = est->EstimateImplicationCount();
  }
  answer.std_error = query.spec.complement
                         ? est->EstimateNonImplicationStdError()
                         : est->EstimateStdError();
  return answer;
}

StatusOr<const ImplicationEstimator*> QueryEngine::Estimator(
    QueryId id) const {
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  return const_cast<const ImplicationEstimator*>(
      EntryOf(queries_[id]).estimator.get());
}

StatusOr<const ImplicationQuerySpec*> QueryEngine::Spec(QueryId id) const {
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  return &queries_[id].spec;
}

StatusOr<QueryBinding> QueryEngine::Binding(QueryId id) const {
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  return queries_[id].binding;
}

StatusOr<SynopsisId> QueryEngine::SynopsisOf(QueryId id) const {
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  return queries_[id].synopsis;
}

std::vector<QueryId> QueryEngine::ActiveQueryIds() const {
  std::vector<QueryId> ids;
  for (QueryId id = 0; id < num_queries(); ++id) {
    if (queries_[id].active) ids.push_back(id);
  }
  return ids;
}

Status QueryEngine::MergeEstimatorState(QueryId id,
                                        std::string_view snapshot) {
  if (aggregate_) return AggregateRefusesWrites();
  IMPLISTAT_RETURN_NOT_OK(CheckQueryId(id));
  const RegisteredQuery& query = queries_[id];
  if (query.binding == QueryBinding::kDerived) {
    return Status::FailedPrecondition(
        "derived queries own no synopsis to merge into");
  }
  SynopsisEntry& entry = store_.entry(query.synopsis);
  IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> twin,
                             MakeEstimator(entry.conditions, entry.config));
  IMPLISTAT_RETURN_NOT_OK(twin->RestoreState(snapshot));
  // MergeFrom leaves the target untouched on failure (estimator
  // contract), so a bad snapshot never half-mutates the live synopsis.
  return entry.estimator->MergeFrom(*twin);
}

Status QueryEngine::RefoldSynopsisState(
    SynopsisId id, const std::vector<std::string_view>& snapshots) {
  if (id < 0 || id >= store_.size() || !store_.entry(id).live()) {
    return Status::NotFound("no such synopsis");
  }
  SynopsisEntry& entry = store_.entry(id);
  // Build the replacement from the synopsis config so the refolded
  // estimator keeps its shape (e.g. its window), then fold each snapshot
  // through a twin exactly like MergeEstimatorState.
  IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> fresh,
                             MakeEstimator(entry.conditions, entry.config));
  for (std::string_view snapshot : snapshots) {
    IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> twin,
                               MakeEstimator(entry.conditions, entry.config));
    IMPLISTAT_RETURN_NOT_OK(twin->RestoreState(snapshot));
    IMPLISTAT_RETURN_NOT_OK(fresh->MergeFrom(*twin));
  }
  // Everything decoded and folded cleanly — only now replace the live
  // estimator.
  return CommitSynopsisEstimator(id, std::move(fresh));
}

Status QueryEngine::CommitSynopsisEstimator(
    SynopsisId id, std::unique_ptr<ImplicationEstimator> estimator) {
  if (id < 0 || id >= store_.size() || !store_.entry(id).live()) {
    return Status::NotFound("no such synopsis");
  }
  store_.entry(id).estimator = std::move(estimator);
  return Status::OK();
}

std::vector<QueryEngine::FoldUnit> QueryEngine::FoldUnits() const {
  std::vector<FoldUnit> units;
  for (SynopsisId sid = 0; sid < store_.size(); ++sid) {
    const SynopsisEntry& entry = store_.entry(sid);
    if (!entry.live()) continue;
    for (QueryId qid = 0; qid < num_queries(); ++qid) {
      const RegisteredQuery& query = queries_[qid];
      if (query.active && query.binding != QueryBinding::kDerived &&
          query.synopsis == sid) {
        units.push_back(FoldUnit{sid, qid, entry.conditions, entry.config});
        break;
      }
    }
  }
  return units;
}

Status QueryEngine::SetDictionaries(
    std::vector<ValueDictionary> dictionaries) {
  if (!dictionaries.empty() &&
      dictionaries.size() !=
          static_cast<size_t>(schema_.num_attributes())) {
    return Status::InvalidArgument(
        "need one dictionary per schema attribute (or none)");
  }
  dictionaries_ = std::move(dictionaries);
  return Status::OK();
}

StatusOr<std::string> QueryEngine::SerializeSynopsisStore() const {
  // Self-contained section: per live synopsis the full recipe (attribute
  // indices, WHERE bytes, conditions, config) plus the estimator state.
  // Restore reconstructs entries from here alone — a synopsis can outlive
  // every owning query (kept alive by derived references), so deriving
  // the recipes from query specs would not cover all entries. Tombstones
  // serialize as a single dead byte to keep ids dense.
  ByteWriter payload;
  payload.PutVarint64(static_cast<uint64_t>(store_.size()));
  for (SynopsisId sid = 0; sid < store_.size(); ++sid) {
    const SynopsisEntry& entry = store_.entry(sid);
    payload.PutU8(entry.live() ? 1 : 0);
    if (!entry.live()) continue;
    payload.PutVarint64(static_cast<uint64_t>(entry.a_set.size()));
    for (int index : entry.a_set.indices()) {
      payload.PutVarint64(static_cast<uint64_t>(index));
    }
    payload.PutVarint64(static_cast<uint64_t>(entry.b_set.size()));
    for (int index : entry.b_set.indices()) {
      payload.PutVarint64(static_cast<uint64_t>(index));
    }
    payload.PutBool(entry.where != nullptr);
    if (entry.where != nullptr) entry.where->SerializeTo(&payload);
    entry.conditions.SerializeTo(&payload);
    entry.config.SerializeTo(&payload);
    IMPLISTAT_ASSIGN_OR_RETURN(std::string state,
                               entry.estimator->SerializeState());
    payload.PutLengthPrefixed(state);
  }
  return WrapSnapshot(SnapshotKind::kSynopsisStore, payload.Release());
}

Status QueryEngine::RestoreSynopsisStore(std::string_view blob) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(blob, SnapshotKind::kSynopsisStore));
  ByteReader in(payload);
  uint64_t num_entries;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_entries));
  if (num_entries > in.remaining() + 1) {  // every entry costs >= 1 byte
    return Status::InvalidArgument(
        "synopsis store: implausible entry count");
  }
  const uint64_t width = static_cast<uint64_t>(schema_.num_attributes());
  for (uint64_t i = 0; i < num_entries; ++i) {
    uint8_t live;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&live));
    if (live > 1) {
      return Status::InvalidArgument("synopsis store: bad liveness flag");
    }
    if (live == 0) {
      store_.CreateTombstone();
      continue;
    }
    auto read_indices =
        [&](std::vector<int>* out) -> Status {
      uint64_t count;
      IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&count));
      if (count == 0 || count > width) {
        return Status::InvalidArgument(
            "synopsis store: bad attribute set size");
      }
      for (uint64_t k = 0; k < count; ++k) {
        uint64_t index;
        IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&index));
        if (index >= width) {
          return Status::InvalidArgument(
              "synopsis store: attribute index out of range");
        }
        out->push_back(static_cast<int>(index));
      }
      return Status::OK();
    };
    std::vector<int> a_indices, b_indices;
    IMPLISTAT_RETURN_NOT_OK(read_indices(&a_indices));
    IMPLISTAT_RETURN_NOT_OK(read_indices(&b_indices));
    bool has_where;
    IMPLISTAT_RETURN_NOT_OK(in.ReadBool(&has_where));
    std::shared_ptr<const Predicate> where;
    if (has_where) {
      IMPLISTAT_ASSIGN_OR_RETURN(
          where, DeserializePredicate(&in, schema_.num_attributes()));
    }
    IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions conditions,
                               ImplicationConditions::Deserialize(&in));
    IMPLISTAT_ASSIGN_OR_RETURN(EstimatorConfig config,
                               EstimatorConfig::Deserialize(&in));
    std::string_view state;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&state));
    IMPLISTAT_ASSIGN_OR_RETURN(
        SynopsisId sid,
        store_.Create(AttributeSet(std::move(a_indices)),
                      AttributeSet(std::move(b_indices)), std::move(where),
                      conditions, config));
    IMPLISTAT_RETURN_NOT_OK(
        store_.entry(sid).estimator->RestoreState(state));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("synopsis store: trailing bytes");
  }
  return Status::OK();
}

StatusOr<std::string> QueryEngine::SerializeState() const {
  ByteWriter payload;
  payload.PutU64(SchemaFingerprint(schema_));
  payload.PutVarint64(static_cast<uint64_t>(schema_.num_attributes()));
  payload.PutVarint64(tuples_);
  // Dictionary section (before the specs, so PeekCheckpointDictionaries
  // can stop here): presence byte, then a nested kValueDictionary
  // envelope — its own CRC makes the blob independently checkable.
  payload.PutU8(dictionaries_.empty() ? 0 : 1);
  if (!dictionaries_.empty()) {
    payload.PutLengthPrefixed(SerializeValueDictionaries(dictionaries_));
  }
  // The synopsis store rides as a nested envelope: every shared
  // estimator serialized once, then the query records reference entries
  // by id.
  IMPLISTAT_ASSIGN_OR_RETURN(std::string store_blob,
                             SerializeSynopsisStore());
  payload.PutLengthPrefixed(store_blob);
  payload.PutVarint64(queries_.size());
  for (const RegisteredQuery& query : queries_) {
    query.spec.SerializeTo(&payload);
    // allow_derived is not part of the spec format; it rides in the
    // record's flag byte.
    uint8_t flags = 0;
    if (query.active) flags |= kFlagActive;
    if (query.spec.allow_derived) flags |= kFlagAllowDerived;
    payload.PutU8(flags);
    payload.PutU8(static_cast<uint8_t>(query.binding));
    if (query.binding == QueryBinding::kDerived) {
      // +1 bias so the no-source sentinel (-1) encodes as 0.
      payload.PutVarint64(
          static_cast<uint64_t>(query.derivation.lower + 1));
      payload.PutVarint64(
          static_cast<uint64_t>(query.derivation.upper + 1));
      payload.PutVarint64(static_cast<uint64_t>(query.derivation.f0 + 1));
    } else {
      payload.PutVarint64(static_cast<uint64_t>(query.synopsis));
    }
  }
  // Armed-trigger section: optional, present only when a trigger is
  // armed. Nested kTriggerStore envelope — its own version byte and CRC
  // make the blob independently checkable.
  if (triggers_ != nullptr && triggers_->num_triggers() > 0) {
    ByteWriter trigger_payload;
    triggers_->SerializeTo(&trigger_payload);
    payload.PutLengthPrefixed(
        WrapSnapshot(SnapshotKind::kTriggerStore, trigger_payload.Release()));
  }
  return WrapSnapshot(SnapshotKind::kQueryEngineV2, payload.Release());
}

Status QueryEngine::RestoreState(std::string_view snapshot) {
  if (!queries_.empty() || store_.size() != 0 || tuples_ != 0) {
    return Status::FailedPrecondition(
        "restore requires a fresh engine (no queries, no observed tuples)");
  }
  Status status = RestoreStateImpl(snapshot);
  if (!status.ok()) {
    // The engine was fresh on entry, so dropping everything restores it
    // exactly — no partially registered query or synopsis survives a bad
    // snapshot.
    queries_.clear();
    store_.Clear();
    tuples_ = 0;
    triggers_.reset();
  }
  return status;
}

// Checkpoint prefix: fingerprint, width, tuple count, optional
// dictionary blob.
namespace {

struct CheckpointPrefix {
  uint64_t tuples = 0;
  std::vector<ValueDictionary> dictionaries;
};

Status ReadCheckpointPrefix(ByteReader* in, const Schema& schema,
                            CheckpointPrefix* out) {
  uint64_t fingerprint;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&fingerprint));
  if (fingerprint != SchemaFingerprint(schema)) {
    return Status::FailedPrecondition(
        "checkpoint was taken over a different schema");
  }
  uint64_t width;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&width));
  if (width != static_cast<uint64_t>(schema.num_attributes())) {
    return Status::InvalidArgument(
        "checkpoint: schema width disagrees with fingerprint");
  }
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&out->tuples));
  uint8_t has_dictionaries;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&has_dictionaries));
  if (has_dictionaries > 1) {
    return Status::InvalidArgument("checkpoint: bad dictionary flag");
  }
  if (has_dictionaries != 0) {
    std::string_view blob;
    IMPLISTAT_RETURN_NOT_OK(in->ReadLengthPrefixed(&blob));
    IMPLISTAT_ASSIGN_OR_RETURN(out->dictionaries,
                               RestoreValueDictionaries(blob));
    if (out->dictionaries.size() !=
        static_cast<size_t>(schema.num_attributes())) {
      return Status::InvalidArgument(
          "checkpoint: dictionary count disagrees with schema width");
    }
  }
  return Status::OK();
}

}  // namespace

Status QueryEngine::RestoreStateImpl(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(snapshot, SnapshotKind::kQueryEngineV2));
  ByteReader in(payload);
  CheckpointPrefix prefix;
  IMPLISTAT_RETURN_NOT_OK(ReadCheckpointPrefix(&in, schema_, &prefix));
  std::string_view store_blob;
  IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&store_blob));
  IMPLISTAT_RETURN_NOT_OK(RestoreSynopsisStore(store_blob));
  uint64_t num_queries;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_queries));
  if (num_queries > in.remaining()) {  // every query costs many bytes
    return Status::InvalidArgument("checkpoint: implausible query count");
  }
  for (uint64_t i = 0; i < num_queries; ++i) {
    IMPLISTAT_ASSIGN_OR_RETURN(
        ImplicationQuerySpec spec,
        ImplicationQuerySpec::Deserialize(&in, schema_.num_attributes()));
    uint8_t flags;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&flags));
    if (flags > (kFlagActive | kFlagAllowDerived)) {
      return Status::InvalidArgument("checkpoint: bad query flags");
    }
    uint8_t binding_byte;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&binding_byte));
    if (binding_byte > static_cast<uint8_t>(QueryBinding::kDerived)) {
      return Status::InvalidArgument("checkpoint: bad query binding");
    }
    RegisteredQuery query;
    query.binding = static_cast<QueryBinding>(binding_byte);
    query.active = (flags & kFlagActive) != 0;
    spec.allow_derived = (flags & kFlagAllowDerived) != 0;

    auto read_ref = [&](int bias, SynopsisId* out) -> Status {
      uint64_t raw;
      IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&raw));
      const int64_t sid = static_cast<int64_t>(raw) - bias;
      if (sid < (bias == 0 ? 0 : -1) ||
          sid >= static_cast<int64_t>(store_.size())) {
        return Status::InvalidArgument(
            "checkpoint: dangling synopsis reference");
      }
      *out = static_cast<SynopsisId>(sid);
      return Status::OK();
    };
    if (query.binding == QueryBinding::kDerived) {
      IMPLISTAT_RETURN_NOT_OK(read_ref(1, &query.derivation.lower));
      IMPLISTAT_RETURN_NOT_OK(read_ref(1, &query.derivation.upper));
      IMPLISTAT_RETURN_NOT_OK(read_ref(1, &query.derivation.f0));
      query.synopsis = query.derivation.primary();
      if (query.active) {
        if (!query.derivation.viable()) {
          return Status::InvalidArgument(
              "checkpoint: derived query without a capping source");
        }
        for (SynopsisId sid : DistinctSources(query.derivation)) {
          if (!store_.entry(sid).live()) {
            return Status::InvalidArgument(
                "checkpoint: dangling synopsis reference");
          }
          store_.AddRef(sid);
        }
      }
    } else {
      IMPLISTAT_RETURN_NOT_OK(read_ref(0, &query.synopsis));
      if (query.active) {
        const SynopsisEntry& entry = store_.entry(query.synopsis);
        if (!entry.live()) {
          return Status::InvalidArgument(
              "checkpoint: dangling synopsis reference");
        }
        // Structural cross-check the envelope CRC cannot do: the bound
        // synopsis must maintain exactly the statistic the spec asks
        // for. Registration only ever binds on key equality, so a
        // mismatch here means a corrupted or hand-edited checkpoint.
        IMPLISTAT_ASSIGN_OR_RETURN(
            AttributeSet a_set,
            AttributeSet::FromNames(schema_, spec.a_attributes));
        IMPLISTAT_ASSIGN_OR_RETURN(
            AttributeSet b_set,
            AttributeSet::FromNames(schema_, spec.b_attributes));
        if (entry.key !=
            CanonicalSynopsisKey(a_set, b_set, spec.where.get(),
                                 spec.conditions, spec.estimator)) {
          return Status::InvalidArgument(
              "checkpoint: query bound to a mismatched synopsis");
        }
        store_.AddRef(query.synopsis);
      }
    }
    query.spec = std::move(spec);
    queries_.push_back(std::move(query));
  }
  // Optional armed-trigger section (absent in trigger-free checkpoints).
  // Restored after the queries so trigger labels resolve against the
  // recovered catalog; a bad section refuses the whole restore.
  if (in.remaining() != 0) {
    std::string_view trigger_blob;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&trigger_blob));
    if (in.remaining() != 0) {
      return Status::InvalidArgument("checkpoint: trailing bytes");
    }
    IMPLISTAT_ASSIGN_OR_RETURN(
        std::string_view trigger_payload,
        UnwrapSnapshot(trigger_blob, SnapshotKind::kTriggerStore));
    auto restored = std::make_unique<cql::TriggerEngine>(&label_source_);
    IMPLISTAT_RETURN_NOT_OK(restored->RestoreFrom(trigger_payload));
    triggers_ = std::move(restored);
  }
  tuples_ = prefix.tuples;
  dictionaries_ = std::move(prefix.dictionaries);
  return Status::OK();
}

StatusOr<std::vector<ValueDictionary>> PeekCheckpointDictionaries(
    std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(snapshot, SnapshotKind::kQueryEngineV2));
  ByteReader in(payload);
  uint64_t fingerprint, width, tuples;
  IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&fingerprint));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&width));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&tuples));
  uint8_t has_dictionaries;
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&has_dictionaries));
  if (has_dictionaries > 1) {
    return Status::InvalidArgument("checkpoint: bad dictionary flag");
  }
  if (has_dictionaries == 0) return std::vector<ValueDictionary>{};
  std::string_view blob;
  IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&blob));
  return RestoreValueDictionaries(blob);
}

Status QueryEngine::Checkpoint(const std::string& path) const {
  obs::ScopedTimer timer(CheckpointMetrics::Get().checkpoint_duration_ns);
  IMPLISTAT_ASSIGN_OR_RETURN(std::string bytes, SerializeState());
  IMPLISTAT_RETURN_NOT_OK(WriteFileAtomic(path, bytes));
  const CheckpointMetrics& metrics = CheckpointMetrics::Get();
  metrics.checkpoints_total->Increment();
  metrics.bytes->Record(bytes.size());
  return Status::OK();
}

Status QueryEngine::Restore(const std::string& path) {
  obs::ScopedTimer timer(CheckpointMetrics::Get().restore_duration_ns);
  IMPLISTAT_ASSIGN_OR_RETURN(std::string bytes, ReadFileToString(path));
  IMPLISTAT_RETURN_NOT_OK(RestoreState(bytes));
  CheckpointMetrics::Get().restores_total->Increment();
  return Status::OK();
}

}  // namespace implistat
