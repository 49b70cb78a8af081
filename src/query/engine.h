// QueryEngine: maintains many concurrent implication queries over one
// stream — the "node in a distributed environment [that] receives a stream
// of data and wants to maintain a series of statistics about various
// implicated attributes" of §3.
//
// Ownership model (the multi-tenant refactor): queries do not own
// estimators. A SynopsisStore (query/synopsis_store.h) holds each
// estimator once, keyed by everything that determines its bytes, and
// queries hold reference-counted bindings:
//
//   * kOwner  — the query created the synopsis.
//   * kShared — registration hit an existing key; answers are
//               byte-identical to a dedicated run (same estimator, same
//               observation sequence) at 1/n the memory.
//   * kDerived — no key hit, but the entailment pass
//               (query/entailment.h) found existing synopses that bound
//               the answer; the query allocates nothing and answers with
//               derived=true plus [lower, upper] bounds (opt-in via
//               ImplicationQuerySpec::allow_derived).
//
// ObserveTuple/ObserveStream iterate synopses, not queries, so a WHERE
// clause shared by a thousand queries is evaluated once per tuple.

#ifndef IMPLISTAT_QUERY_ENGINE_H_
#define IMPLISTAT_QUERY_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cql/trigger_engine.h"
#include "query/entailment.h"
#include "query/query.h"
#include "query/synopsis_store.h"
#include "stream/itemset.h"
#include "stream/schema.h"
#include "stream/tuple_stream.h"
#include "stream/value_dictionary.h"
#include "util/status_or.h"

namespace implistat {

using QueryId = int;

/// How a registered query is bound to its synopsis. Values are part of
/// the kQueryEngineV2 checkpoint format — append only.
enum class QueryBinding : uint8_t { kOwner = 0, kShared = 1, kDerived = 2 };

/// A query's full answer: the estimate plus the derivation metadata the
/// wire QUERY response carries.
struct QueryAnswer {
  double estimate = 0;
  /// 1σ error bar from the estimator, on ~S for complement queries; for
  /// derived answers, the bound half-width (upper - lower) / 2.
  /// Negative = unquantified.
  double std_error = -1;
  bool derived = false;
  /// Entailment bounds; only meaningful when derived.
  double lower = 0;
  double upper = 0;
};

class QueryEngine {
 public:
  explicit QueryEngine(Schema schema);

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Validates and registers a query; returns its id. A non-empty label
  /// already carried by an active query is rejected with AlreadyExists —
  /// a silent shadow registration was never answerable by label.
  StatusOr<QueryId> Register(ImplicationQuerySpec spec);

  /// Parses, binds and registers a query in the paper's SQL-like syntax
  /// (see query/parser.h). `dictionaries` resolve quoted condition
  /// values; may be null when conditions use raw value ids.
  StatusOr<QueryId> RegisterSql(
      std::string_view text,
      const std::vector<ValueDictionary>* dictionaries = nullptr);

  /// Unbinds the query and drops its synopsis references; an estimator
  /// whose last reference drops is freed. The id stays allocated (ids
  /// never shift) but answers NotFound from here on.
  Status Deregister(QueryId id);

  /// Feeds one tuple to every live synopsis.
  void ObserveTuple(TupleRef tuple);

  /// Drains a whole stream. The stream's schema must match.
  Status ObserveStream(TupleStream& stream);

  /// The query's current answer: S, or ~S for complement queries. For
  /// derived queries, the bound midpoint (see AnswerEx). Estimate only —
  /// unlike AnswerEx it skips the leave-one-out std-error pass, so it is
  /// cheap enough for per-epoch polling (trigger evaluation).
  StatusOr<double> Answer(QueryId id) const;

  /// Answer plus derivation metadata (flag, bounds, error bar).
  StatusOr<QueryAnswer> AnswerEx(QueryId id) const;

  /// Direct access to the underlying estimator (for the richer readouts
  /// such as F0_sup or memory accounting). For kShared queries this is
  /// the shared instance; for kDerived, the primary bound source.
  StatusOr<const ImplicationEstimator*> Estimator(QueryId id) const;

  /// The registered spec (label, conditions, estimator config).
  StatusOr<const ImplicationQuerySpec*> Spec(QueryId id) const;

  /// The query's binding mode and synopsis id.
  StatusOr<QueryBinding> Binding(QueryId id) const;
  StatusOr<SynopsisId> SynopsisOf(QueryId id) const;

  /// Ids of queries that are registered and not deregistered — what a
  /// QUERY request with no explicit ids enumerates.
  std::vector<QueryId> ActiveQueryIds() const;

  /// Folds a remote estimator snapshot (SerializeState bytes from a
  /// compatible estimator) into query `id`'s synopsis: decode into a
  /// twin built from the same config, then MergeFrom. This is the
  /// aggregation half of the paper's edge→aggregator topology — edges
  /// ship kilobyte summaries, the aggregator merges them as if it had
  /// observed the combined stream. On failure the synopsis is unchanged.
  /// Every query sharing the synopsis sees the fold; derived queries
  /// (which own no synopsis) refuse with FailedPrecondition.
  Status MergeEstimatorState(QueryId id, std::string_view snapshot);

  /// Replace-then-refold: rebuilds the synopsis's estimator from scratch
  /// and folds every snapshot in `snapshots` into the fresh instance,
  /// then swaps it in. Unlike MergeEstimatorState (which accumulates),
  /// refolding is idempotent by construction — feeding the same set of
  /// per-peer snapshots twice yields the same state, so a retried or
  /// duplicated ship can never double-count. This is the aggregation
  /// tier's reference fold (the supervisor in src/cluster/ merges live
  /// estimators instead and commits through CommitSynopsisEstimator),
  /// keyed by synopsis so a shared estimator folds exactly once per fleet
  /// poll. Builds into temporaries and swaps last: on failure the
  /// previous estimator stays untouched.
  Status RefoldSynopsisState(SynopsisId id,
                             const std::vector<std::string_view>& snapshots);

  /// Swaps `estimator` in as synopsis `id`'s live state — the commit
  /// half of a refold. The caller built it from the synopsis recipe
  /// (FoldUnit) and merged every contribution into it. NotFound for a
  /// dead synopsis.
  Status CommitSynopsisEstimator(
      SynopsisId id, std::unique_ptr<ImplicationEstimator> estimator);

  /// One fold unit per live synopsis: the synopsis id, a representative
  /// (first active, non-derived) query bound to it — the query id an
  /// aggregator uses for SNAPSHOT pulls, since the wire addresses
  /// estimator state by query id — and the synopsis recipe, from which
  /// MakeEstimator builds a compatible empty estimator without touching
  /// the engine. Synopses alive only through derived references have no
  /// representative and are omitted.
  struct FoldUnit {
    SynopsisId synopsis = -1;
    QueryId representative = -1;
    ImplicationConditions conditions;
    EstimatorConfig config;
  };
  std::vector<FoldUnit> FoldUnits() const;

  /// Overrides the tuples-seen counter. Aggregation-tier hook only: a
  /// refolded aggregate did not observe its tuples through ObserveTuple,
  /// so the supervisor sets the sum of the folded peers' epochs here to
  /// keep QUERY readouts meaningful.
  void SetTuplesSeen(uint64_t tuples) { tuples_ = tuples; }

  /// Marks the engine as an aggregate (AggregatorSupervisor::Init): every
  /// refold rebuilds its synopses from the supervisor's base and peers,
  /// so a write would last only until the next fold. From here on,
  /// ObserveStream and MergeEstimatorState refuse with FailedPrecondition
  /// and mutate nothing. Not kept in checkpoints.
  void MarkAggregate() { aggregate_ = true; }

  // --- Continuous triggers -------------------------------------------------
  //
  // CREATE TRIGGER statements (src/cql/) compile against the registered
  // query labels and arm on the ingest path: the trigger engine is
  // ticked with the tuple count from ObserveTuple/ObserveStream and
  // evaluates due programs at their epoch boundaries. Firings accumulate
  // until TakeTriggerFirings drains them (the net/ writer does this
  // after every engine-mutating op and fans them out to subscribers).

  /// Compiles and arms one CREATE TRIGGER statement; returns its name.
  StatusOr<std::string> InstallTrigger(std::string_view statement);

  /// The armed trigger engine, or null when none was ever installed.
  cql::TriggerEngine* triggers() { return triggers_.get(); }
  const cql::TriggerEngine* triggers() const { return triggers_.get(); }

  bool has_pending_trigger_firings() const {
    return triggers_ != nullptr && triggers_->has_pending_firings();
  }
  std::vector<cql::TriggerFiring> TakeTriggerFirings();

  const Schema& schema() const { return schema_; }
  uint64_t tuples_seen() const { return tuples_; }
  int num_queries() const { return static_cast<int>(queries_.size()); }
  /// Live (estimator-holding) synopses.
  int num_synopses() const { return store_.num_live(); }
  /// Memory over live synopses, each shared estimator counted once.
  uint64_t TotalSynopsisMemoryBytes() const {
    return store_.TotalMemoryBytes();
  }

  // --- Value dictionaries --------------------------------------------------
  //
  // Dictionary-coded text streams (CSV) assign ids by first appearance,
  // so an estimator state is only meaningful together with the mapping
  // that produced it. An engine fed from text carries that mapping here;
  // checkpoints embed it, and PeekCheckpointDictionaries recovers it
  // before the schema is even known — restart seeds its CSV reader with
  // the old mapping and ids line up no matter how the replayed file is
  // ordered.

  /// Attaches the per-attribute dictionaries (one per schema attribute,
  /// or empty to detach). They ride along in SerializeState/Checkpoint.
  Status SetDictionaries(std::vector<ValueDictionary> dictionaries);

  /// The attached dictionaries; empty when the stream is id-coded.
  const std::vector<ValueDictionary>& dictionaries() const {
    return dictionaries_;
  }

  // --- Durable state -------------------------------------------------------
  //
  // A checkpoint captures the whole engine — schema fingerprint, every
  // registered query spec (WHERE clause included), tuples_seen, and the
  // synopsis store (each shared estimator serialized ONCE, with
  // query→synopsis references) — in one kQueryEngineV2 snapshot
  // envelope. The envelope's version check refuses a checkpoint written
  // under any other snapshot format version. Restoring onto an engine
  // built over the same schema re-registers the queries, re-establishes
  // the sharing structure recorded in the checkpoint, and resumes the
  // stream exactly where the checkpoint left it.

  /// Serializes the engine into a kQueryEngineV2 snapshot envelope.
  StatusOr<std::string> SerializeState() const;

  /// Rebuilds the engine from SerializeState bytes. Requires a fresh
  /// engine (no registered queries, no observed tuples) whose schema
  /// matches the one the checkpoint was taken over. On failure the engine
  /// is left fresh (no partial registration survives); dangling
  /// query→synopsis references refuse the restore outright.
  Status RestoreState(std::string_view snapshot);

  /// Writes SerializeState to `path` atomically (write temp file, fsync,
  /// rename), so a crash mid-checkpoint never clobbers the previous one.
  Status Checkpoint(const std::string& path) const;

  /// Reads a Checkpoint file and RestoreStates from it.
  Status Restore(const std::string& path);

 private:
  /// Adapter the trigger subsystem resolves labels/estimates through —
  /// cql/ stays below query/ in the library graph.
  class LabelSource : public cql::EstimateSource {
   public:
    explicit LabelSource(const QueryEngine* engine) : engine_(engine) {}
    bool HasLabel(std::string_view label) const override;
    StatusOr<double> EstimateForLabel(std::string_view label) const override;

   private:
    const QueryEngine* engine_;
  };

  struct RegisteredQuery {
    ImplicationQuerySpec spec;
    QueryBinding binding = QueryBinding::kOwner;
    /// kOwner/kShared: the bound synopsis. kDerived: the primary source.
    SynopsisId synopsis = -1;
    DerivationSources derivation;  // meaningful for kDerived only
    bool active = true;
  };

  Status CheckQueryId(QueryId id) const;
  const SynopsisEntry& EntryOf(const RegisteredQuery& query) const;
  Status RestoreStateImpl(std::string_view snapshot);
  StatusOr<std::string> SerializeSynopsisStore() const;
  Status RestoreSynopsisStore(std::string_view blob);

  /// Resolves a trigger's query label: an explicit spec.label match
  /// first, then the positional form `q<N>` for the N-th registered
  /// query (SQL registration assigns no label, so `q0` is how wire
  /// clients name the first query). Returns -1 when nothing matches.
  QueryId FindActiveByLabel(std::string_view label) const;

  Schema schema_;
  SynopsisStore store_;
  std::vector<RegisteredQuery> queries_;
  std::vector<ValueDictionary> dictionaries_;
  uint64_t tuples_ = 0;
  bool aggregate_ = false;  // see MarkAggregate
  LabelSource label_source_{this};
  std::unique_ptr<cql::TriggerEngine> triggers_;  // lazy: null until install
};

/// Extracts the value dictionaries embedded in a kQueryEngineV2
/// checkpoint without restoring it (and without knowing the schema — the
/// dictionary section precedes the query specs).
/// Returns an empty vector when the checkpoint carries none (id-coded
/// streams).
StatusOr<std::vector<ValueDictionary>> PeekCheckpointDictionaries(
    std::string_view snapshot);

/// Order-sensitive digest (FNV-1a 64) of the schema's attribute names and
/// declared cardinalities. Stored in every checkpoint; restore refuses a
/// snapshot whose fingerprint differs from the restoring engine's schema.
uint64_t SchemaFingerprint(const Schema& schema);

}  // namespace implistat

#endif  // IMPLISTAT_QUERY_ENGINE_H_
