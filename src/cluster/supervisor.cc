#include "cluster/supervisor.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <sstream>
#include <utility>

#include "delta/delta.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace implistat::cluster {

namespace {

int64_t MonotonicNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One fold unit's finished estimator, ready to swap into the engine.
struct FoldedUnit {
  SynopsisId synopsis;
  std::unique_ptr<ImplicationEstimator> estimator;
};

}  // namespace

StatusOr<PeerConfig> ParsePeerSpec(std::string_view spec) {
  size_t colon = spec.rfind(':');
  if (colon == std::string_view::npos || colon == 0 ||
      colon + 1 == spec.size()) {
    return Status::InvalidArgument("peer spec must be host:port, got '" +
                                   std::string(spec) + "'");
  }
  PeerConfig config;
  config.host = std::string(spec.substr(0, colon));
  std::string port_text(spec.substr(colon + 1));
  char* end = nullptr;
  long port = std::strtol(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad peer port in '" + std::string(spec) +
                                   "'");
  }
  config.port = static_cast<uint16_t>(port);
  config.name = std::string(spec);
  return config;
}

const char* PeerHealthName(PeerHealth health) {
  switch (health) {
    case PeerHealth::kHealthy:
      return "HEALTHY";
    case PeerHealth::kDegraded:
      return "DEGRADED";
    case PeerHealth::kStale:
      return "STALE";
  }
  return "UNKNOWN";
}

int64_t BackoffDelayMs(const SupervisorOptions& options,
                       int consecutive_failures, Rng& rng) {
  int64_t delay = options.backoff_initial_ms;
  for (int i = 1; i < consecutive_failures && delay < options.backoff_max_ms;
       ++i) {
    delay = std::min(options.backoff_max_ms, delay * 2);
  }
  delay = std::min(delay, options.backoff_max_ms);
  if (delay <= 0) {
    rng.Next64();  // keep the one-draw-per-call contract
    return 0;
  }
  int64_t half = delay / 2;
  return half +
         static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(delay - half) + 1));
}

// Unlabelled cluster-wide handles; per-peer gauges live on each Peer.
struct AggregatorSupervisor::Metrics {
  obs::Counter* folds_total;
  obs::Counter* fold_errors_total;
  obs::Counter* refolds_skipped_total;
  obs::Counter* pulls_total;
  obs::Counter* pull_failures_total;
  obs::Counter* snapshot_bytes_total;
  obs::Counter* delta_bytes_total;
  obs::Counter* delta_resyncs_total;

  static const Metrics* Get() {
    static const Metrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* metrics = new Metrics();
      metrics->folds_total = reg.GetCounter(
          "implistat_cluster_folds_total",
          "Completed replace-then-refold passes over the aggregate engine");
      metrics->fold_errors_total = reg.GetCounter(
          "implistat_cluster_fold_errors_total",
          "Refold passes that failed and left the previous aggregate in place");
      metrics->refolds_skipped_total = reg.GetCounter(
          "implistat_cluster_refolds_skipped_total",
          "Successful poll rounds that changed nothing (epochs unchanged)");
      metrics->pulls_total =
          reg.GetCounter("implistat_cluster_pulls_total",
                         "SNAPSHOT pull attempts across all peers");
      metrics->pull_failures_total =
          reg.GetCounter("implistat_cluster_pull_failures_total",
                         "SNAPSHOT pull attempts that failed");
      metrics->snapshot_bytes_total = reg.GetCounter(
          "implistat_snapshot_bytes_total",
          "Bytes received as full snapshot payloads across all peers");
      metrics->delta_bytes_total = reg.GetCounter(
          "implistat_delta_bytes_total",
          "Bytes received as SNAPSHOT_DELTA patch payloads across all peers");
      metrics->delta_resyncs_total = reg.GetCounter(
          "implistat_delta_resyncs_total",
          "Full snapshots that replaced an established delta baseline "
          "(edge restart, evicted baseline, or refused patch)");
      return metrics;
    }();
    return m;
  }
};

struct AggregatorSupervisor::Peer {
  PeerConfig config;
  std::optional<net::Client> client;

  // Contribution, one slot per fold unit (poll-thread only): the unit's
  // state as of the last successful pull, as a live estimator.
  struct UnitState {
    // The twin SNAPSHOT_DELTA patches land in, or, for a kind without
    // deltas, the decoded full snapshot.
    std::unique_ptr<ImplicationEstimator> estimator;
    // The baseline the next pull names as since_epoch; 0 = none, which
    // asks for a full answer (bootstrap, or a kind without deltas).
    uint64_t acked_epoch = 0;
    // Kinds without deltas only: the bytes `estimator` was decoded from,
    // so a re-ship of the same state is recognized without decoding it
    // again.
    std::string full_state;
  };
  std::vector<UnitState> units;
  bool has_contribution = false;

  // Reader-visible fields (guarded by the supervisor's mu_).
  PeerHealth health = PeerHealth::kHealthy;
  int consecutive_failures = 0;
  uint64_t epoch = 0;
  int64_t last_success_ms = -1;
  uint64_t epoch_regressions = 0;
  std::string last_error;

  // Schedule (poll-thread only).
  int64_t next_attempt_ms = 0;

  // Per-peer metric handles (label: peer name).
  obs::Gauge* age_gauge = nullptr;
  obs::Gauge* failures_gauge = nullptr;
  obs::Gauge* health_gauge = nullptr;
  obs::Counter* regressions_total = nullptr;
};

// One unit's fetched response, decoded as far as it can be without
// touching the unit's contribution.
struct AggregatorSupervisor::UnitPull {
  // The since_epoch the request named; 0 asks for a full answer.
  uint64_t since = 0;
  net::DeltaSnapshotResponse response;
  // Full answers only: whether the kind serves deltas, and the decoded
  // estimator — null when the bytes repeat the unit's kept ones.
  bool delta_capable = false;
  std::unique_ptr<ImplicationEstimator> decoded;
};

AggregatorSupervisor::AggregatorSupervisor(QueryEngine* aggregate,
                                           std::vector<PeerConfig> peers,
                                           SupervisorOptions options,
                                           TaskRunner fold_runner)
    : engine_(aggregate),
      options_(options),
      fold_runner_(std::move(fold_runner)),
      jitter_rng_(SplitMix64(options.jitter_seed)) {
  if (!fold_runner_) {
    fold_runner_ = [](std::function<void()> task) { task(); };
  }
  metrics_ = Metrics::Get();
  auto& reg = obs::MetricsRegistry::Global();
  for (PeerConfig& config : peers) {
    auto peer = std::make_unique<Peer>();
    if (config.name.empty()) {
      config.name = config.host + ":" + std::to_string(config.port);
    }
    peer->config = std::move(config);
    const std::string& name = peer->config.name;
    peer->age_gauge = reg.GetGauge(
        "implistat_peer_last_success_age_ms",
        "Milliseconds since the last successful snapshot pull (-1: never)",
        "peer", name);
    peer->age_gauge->Set(-1);
    peer->failures_gauge = reg.GetGauge(
        "implistat_peer_consecutive_failures",
        "Consecutive failed pull attempts against this peer", "peer", name);
    peer->health_gauge = reg.GetGauge(
        "implistat_peer_health",
        "Peer health state: 0 HEALTHY, 1 DEGRADED, 2 STALE", "peer", name);
    peer->regressions_total = reg.GetCounter(
        "implistat_peer_epoch_regressions_total",
        "Pulls whose epoch went backwards (edge restarted from checkpoint)",
        "peer", name);
    peers_.push_back(std::move(peer));
  }
}

AggregatorSupervisor::~AggregatorSupervisor() { Stop(); }

Status AggregatorSupervisor::Init() {
  if (initialized_) {
    return Status::FailedPrecondition("supervisor already initialized");
  }
  fold_units_ = engine_->FoldUnits();
  if (fold_units_.empty()) {
    return Status::FailedPrecondition(
        "aggregate engine has no registered queries to supervise");
  }
  // Every refold merges into a fresh estimator from the unit's recipe. A
  // kind that cannot merge (a sliding window, ISS) would fail every
  // refold, so the same merge is tried once here, on two empty estimators.
  for (const QueryEngine::FoldUnit& unit : fold_units_) {
    IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> probe,
                               MakeEstimator(unit.conditions, unit.config));
    IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> other,
                               MakeEstimator(unit.conditions, unit.config));
    if (Status merged = probe->MergeFrom(*other); !merged.ok()) {
      std::string message = "query ";
      message.append(std::to_string(unit.representative))
          .append(" (")
          .append(probe->name())
          .append(") cannot be aggregated: ")
          .append(merged.message());
      return Status::FailedPrecondition(message);
    }
  }
  for (auto& peer : peers_) peer->units.resize(fold_units_.size());
  if (engine_->tuples_seen() > 0) {
    base_tuples_ = engine_->tuples_seen();
    base_.reserve(fold_units_.size());
    for (const QueryEngine::FoldUnit& unit : fold_units_) {
      // A decoded copy, not the engine's instance: every refold replaces
      // the engine's estimators, and the base must outlive them.
      IMPLISTAT_ASSIGN_OR_RETURN(const ImplicationEstimator* estimator,
                                 engine_->Estimator(unit.representative));
      IMPLISTAT_ASSIGN_OR_RETURN(std::string state,
                                 estimator->SerializeState());
      IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> base,
                                 MakeEstimator(unit.conditions, unit.config));
      IMPLISTAT_RETURN_NOT_OK(base->RestoreState(state));
      base_.push_back(std::move(base));
    }
  }
  // The base is captured: from here on a write to the engine would be
  // dropped by the next refold, so the engine refuses writes instead.
  engine_->MarkAggregate();
  initialized_ = true;
  return Status::OK();
}

Status AggregatorSupervisor::FetchUnit(Peer& peer, size_t u,
                                       UnitPull* pull) {
  const QueryEngine::FoldUnit& unit = fold_units_[u];
  const uint32_t query_id = static_cast<uint32_t>(unit.representative);
  const Peer::UnitState& state = peer.units[u];
  // Every pull is a SNAPSHOT_DELTA against the acked epoch. A kind
  // without deltas never acks one, so it names 0 and is answered in full
  // every round.
  pull->since = state.acked_epoch;
  IMPLISTAT_ASSIGN_OR_RETURN(
      pull->response,
      peer.client->SnapshotDelta(query_id, pull->since, net::kDeltaCapRle));
  if (pull->response.is_delta) {
    if (pull->since == 0) {
      return Status::InvalidArgument(
          "peer answered a since_epoch 0 pull with a delta");
    }
    return Status::OK();
  }
  // A full answer is decoded here, once, so a bad snapshot fails the pull
  // before any unit's contribution has changed.
  const std::string& bytes = pull->response.state;
  IMPLISTAT_ASSIGN_OR_RETURN(SnapshotKind kind, PeekSnapshotKind(bytes));
  pull->delta_capable = KindSupportsDeltas(kind);
  if (!pull->delta_capable && state.estimator != nullptr &&
      bytes == state.full_state) {
    return Status::OK();  // the decoded contribution already holds these
  }
  IMPLISTAT_ASSIGN_OR_RETURN(pull->decoded,
                             MakeEstimator(unit.conditions, unit.config));
  return pull->decoded->RestoreState(bytes);
}

StatusOr<bool> AggregatorSupervisor::ApplyUnit(Peer& peer, size_t u,
                                               UnitPull pull, uint64_t* epoch,
                                               PollStats* stats) {
  Peer::UnitState& state = peer.units[u];
  // True once an established baseline had to be replaced by a full
  // snapshot — the resync the metrics and stats count. A full answer to
  // a patch request means the edge restarted, its epoch regressed, or
  // our baseline fell off its mark window.
  bool lost_baseline = pull.since != 0 && !pull.response.is_delta;
  if (pull.response.is_delta) {
    StatusOr<DeltaInfo> applied =
        ApplyDeltaSnapshot(state.estimator.get(), pull.response.state,
                           pull.since);
    if (applied.ok()) {
      ++stats->delta_pulls;
      metrics_->delta_bytes_total->Increment(pull.response.state.size());
      state.acked_epoch = pull.response.epoch;
      *epoch = pull.response.epoch;
      // The edge's state moves only with its epoch (a merge or restore
      // drops its baselines and forces a full answer), so a patch that
      // kept the epoch changed nothing.
      return pull.response.epoch != pull.since;
    }
    // Refused patch (corrupt, wrong base, stale twin). ApplyDelta mutates
    // nothing on refusal, so the twin still holds the acked state; drop
    // the baseline and resync with an explicit full pull in this same
    // round rather than serving a stale contribution until the next one.
    obs::LogEvent(obs::LogLevel::kWarn, "cluster", "delta_refused")
        .Str("peer", peer.config.name)
        .U64("query", static_cast<uint64_t>(fold_units_[u].representative))
        .Str("error", applied.status().ToString());
    state.acked_epoch = 0;
    lost_baseline = true;
    pull = UnitPull();
    IMPLISTAT_RETURN_NOT_OK(FetchUnit(peer, u, &pull));
  }

  ++stats->full_pulls;
  metrics_->snapshot_bytes_total->Increment(pull.response.state.size());
  if (lost_baseline) {
    ++stats->resyncs;
    metrics_->delta_resyncs_total->Increment();
  }
  *epoch = pull.response.epoch;
  if (pull.decoded == nullptr) return false;  // same bytes as last time
  // A full snapshot replaces the contribution: delta-capable kinds become
  // the twin the next round patches, the rest keep their bytes for the
  // next comparison.
  const bool twin = pull.delta_capable;
  state.estimator = std::move(pull.decoded);
  state.acked_epoch = twin ? pull.response.epoch : 0;
  state.full_state = twin ? std::string() : std::move(pull.response.state);
  return true;
}

Status AggregatorSupervisor::PullPeer(Peer& peer, PollStats* stats) {
  if (!peer.client.has_value()) {
    net::ClientOptions client_options;
    client_options.connect_timeout_ms = options_.connect_timeout_ms;
    client_options.request_timeout_ms = options_.rpc_deadline_ms;
    auto connected = net::Client::Connect(peer.config.host, peer.config.port,
                                          client_options);
    if (!connected.ok()) return connected.status();
    peer.client.emplace(std::move(connected).value());
  } else if (peer.client->connection_lost()) {
    IMPLISTAT_RETURN_NOT_OK(peer.client->Reconnect());
  }

  // Pull one state per fold unit, addressed by the unit's representative
  // query id (the wire names estimator state by query; the edge resolves
  // it to the same shared synopsis). Every response is fetched before
  // any is applied, so a pull that fails part-way leaves the peer's
  // contribution as its last successful pull left it (DEGRADED keeps it
  // in the fold). The edge may keep ingesting between the per-unit round
  // trips, so the epochs can differ slightly; the set is keyed by the
  // last one (refolds are estimates over near-simultaneous views, and
  // the next poll replaces the set wholesale anyway).
  std::vector<UnitPull> pulls(fold_units_.size());
  for (size_t u = 0; u < fold_units_.size(); ++u) {
    IMPLISTAT_RETURN_NOT_OK(FetchUnit(peer, u, &pulls[u]));
  }
  uint64_t epoch = 0;
  bool changed = !peer.has_contribution;
  for (size_t u = 0; u < fold_units_.size(); ++u) {
    IMPLISTAT_ASSIGN_OR_RETURN(
        bool unit_changed,
        ApplyUnit(peer, u, std::move(pulls[u]), &epoch, stats));
    changed = changed || unit_changed;
  }

  changed = changed || epoch != peer.epoch;
  bool was_included = peer.has_contribution && peer.health != PeerHealth::kStale;
  if (peer.has_contribution && epoch < peer.epoch) {
    peer.regressions_total->Increment();
    obs::LogEvent(obs::LogLevel::kInfo, "cluster", "epoch_regression")
        .Str("peer", peer.config.name)
        .U64("previous_epoch", peer.epoch)
        .U64("epoch", epoch);
    std::lock_guard<std::mutex> lock(mu_);
    ++peer.epoch_regressions;
  }
  peer.has_contribution = true;
  if (changed || !was_included) {
    fold_dirty_ = true;
  } else {
    metrics_->refolds_skipped_total->Increment();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    peer.epoch = epoch;
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<ImplicationEstimator>> AggregatorSupervisor::MergeUnit(
    size_t u, const std::vector<const Peer*>& included) const {
  const QueryEngine::FoldUnit& unit = fold_units_[u];
  IMPLISTAT_ASSIGN_OR_RETURN(std::unique_ptr<ImplicationEstimator> fresh,
                             MakeEstimator(unit.conditions, unit.config));
  if (!base_.empty()) IMPLISTAT_RETURN_NOT_OK(fresh->MergeFrom(*base_[u]));
  for (const Peer* peer : included) {
    IMPLISTAT_RETURN_NOT_OK(fresh->MergeFrom(*peer->units[u].estimator));
  }
  return fresh;
}

void AggregatorSupervisor::ScheduleRefold() {
  // Build the new aggregate here, on the poll thread: per unit, a fresh
  // estimator from the unit's recipe with the base and every included
  // (non-STALE, pulled-at-least-once) peer's live contribution merged
  // in. The closure below receives only these finished estimators — it
  // may run later, on another thread (Server::InjectTask), after the
  // twins have been patched again.
  std::vector<const Peer*> included;
  uint64_t total_tuples = base_tuples_;
  for (const auto& peer : peers_) {
    if (!peer->has_contribution || peer->health == PeerHealth::kStale) {
      continue;
    }
    total_tuples += peer->epoch;
    included.push_back(peer.get());
  }
  auto folded = std::make_shared<std::vector<FoldedUnit>>();
  folded->reserve(fold_units_.size());
  bool merged_all = true;
  for (size_t u = 0; u < fold_units_.size(); ++u) {
    const QueryEngine::FoldUnit& unit = fold_units_[u];
    StatusOr<std::unique_ptr<ImplicationEstimator>> fresh =
        MergeUnit(u, included);
    if (!fresh.ok()) {
      // This unit keeps its previous estimator; the fold counts as
      // failed but the other units still land.
      obs::LogEvent(obs::LogLevel::kError, "cluster", "refold_failed")
          .U64("synopsis", static_cast<uint64_t>(unit.synopsis))
          .Str("error", fresh.status().ToString());
      merged_all = false;
      continue;
    }
    folded->push_back(FoldedUnit{unit.synopsis, std::move(fresh).value()});
  }

  QueryEngine* engine = engine_;
  const Metrics* metrics = metrics_;
  auto folds_completed = folds_completed_;
  // The fold may run later on another thread (Server::InjectTask), where
  // the poll span is no longer on the stack — so its context is captured
  // by value and handed to the fold span as an explicit parent, keeping
  // the whole poll -> pull -> fold chain on one trace id.
  const obs::SpanContext poll_context = obs::Tracer::CurrentContext();
  fold_runner_([engine, metrics, folds_completed, folded, merged_all,
                total_tuples, poll_context] {
    obs::ScopedSpan span("cluster.fold", "cluster", poll_context);
    span.Annotate("fold_units", static_cast<uint64_t>(folded->size()));
    span.Annotate("tuples", total_tuples);
    bool ok = merged_all;
    for (FoldedUnit& unit : *folded) {
      // Keyed by synopsis: every query sharing it sees this one fold.
      Status status = engine->CommitSynopsisEstimator(
          unit.synopsis, std::move(unit.estimator));
      if (!status.ok()) {
        obs::LogEvent(obs::LogLevel::kError, "cluster", "refold_failed")
            .U64("synopsis", static_cast<uint64_t>(unit.synopsis))
            .Str("error", status.ToString());
        ok = false;
      }
    }
    if (ok) {
      engine->SetTuplesSeen(total_tuples);
      metrics->folds_total->Increment();
      folds_completed->fetch_add(1, std::memory_order_release);
    } else {
      metrics->fold_errors_total->Increment();
    }
  });
}

PollStats AggregatorSupervisor::PollOnce(int64_t now_ms) {
  IMPLISTAT_CHECK(initialized_) << "PollOnce before Init()";
  PollStats stats;
  // The round's root span; per-peer pulls (and the fold the round
  // schedules) hang off it, so one poll reads as one trace covering the
  // whole fan-out.
  obs::ScopedSpan poll_span("cluster.poll", "cluster");
  for (auto& peer_ptr : peers_) {
    Peer& peer = *peer_ptr;
    if (now_ms < peer.next_attempt_ms) continue;
    ++stats.attempted;
    metrics_->pulls_total->Increment();
    Status status;
    {
      obs::ScopedSpan pull_span("cluster.pull", "cluster");
      pull_span.SetDetail(peer.config.name.c_str());
      status = PullPeer(peer, &stats);
    }
    const PeerHealth previous_health = peer.health;
    std::lock_guard<std::mutex> lock(mu_);
    if (status.ok()) {
      ++stats.succeeded;
      bool was_stale = peer.health == PeerHealth::kStale;
      peer.health = PeerHealth::kHealthy;
      peer.consecutive_failures = 0;
      peer.last_success_ms = now_ms;
      peer.last_error.clear();
      peer.next_attempt_ms = now_ms + options_.poll_interval_ms;
      if (was_stale) fold_dirty_ = true;  // re-inclusion changes the fold
    } else {
      ++stats.failed;
      metrics_->pull_failures_total->Increment();
      ++peer.consecutive_failures;
      bool was_included =
          peer.has_contribution && peer.health != PeerHealth::kStale;
      peer.health = peer.consecutive_failures >= options_.stale_after_failures
                        ? PeerHealth::kStale
                        : PeerHealth::kDegraded;
      if (was_included && peer.health == PeerHealth::kStale) {
        fold_dirty_ = true;  // exclusion changes the fold
      }
      peer.last_error = status.ToString();
      peer.next_attempt_ms =
          now_ms +
          BackoffDelayMs(options_, peer.consecutive_failures, jitter_rng_);
    }
    if (peer.health != previous_health) {
      // STALE means the peer left the fold — that is operator-visible
      // (warn); the intermediate downgrade and the recovery are info.
      obs::LogEvent(peer.health == PeerHealth::kStale ? obs::LogLevel::kWarn
                                                      : obs::LogLevel::kInfo,
                    "cluster", "peer_health")
          .Str("peer", peer.config.name)
          .Str("from", PeerHealthName(previous_health))
          .Str("to", PeerHealthName(peer.health))
          .U64("consecutive_failures",
               static_cast<uint64_t>(peer.consecutive_failures))
          .Str("last_error", peer.last_error);
    }
    peer.failures_gauge->Set(peer.consecutive_failures);
    peer.health_gauge->Set(static_cast<int64_t>(peer.health));
  }
  for (auto& peer_ptr : peers_) {
    Peer& peer = *peer_ptr;
    std::lock_guard<std::mutex> lock(mu_);
    peer.age_gauge->Set(peer.last_success_ms < 0 ? -1
                                                 : now_ms - peer.last_success_ms);
  }
  if (fold_dirty_) {
    fold_dirty_ = false;
    stats.refolded = true;
    ScheduleRefold();
  }
  return stats;
}

PollStats AggregatorSupervisor::PollOnce() { return PollOnce(MonotonicNowMs()); }

int64_t AggregatorSupervisor::NextAttemptAtMs(int64_t now_ms) const {
  int64_t next = now_ms + options_.poll_interval_ms;
  for (const auto& peer : peers_) {
    next = std::min(next, peer->next_attempt_ms);
  }
  return std::max(next, now_ms);
}

void AggregatorSupervisor::Start() {
  if (thread_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    stop_requested_ = false;
  }
  thread_ = std::thread([this] { RunLoop(); });
}

void AggregatorSupervisor::Stop() {
  {
    std::lock_guard<std::mutex> lock(loop_mu_);
    stop_requested_ = true;
  }
  loop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void AggregatorSupervisor::RunLoop() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(loop_mu_);
      if (stop_requested_) return;
    }
    int64_t now = MonotonicNowMs();
    PollOnce(now);
    int64_t wake_at = NextAttemptAtMs(MonotonicNowMs());
    int64_t sleep_ms = std::max<int64_t>(wake_at - MonotonicNowMs(), 10);
    std::unique_lock<std::mutex> lock(loop_mu_);
    loop_cv_.wait_for(lock, std::chrono::milliseconds(sleep_ms),
                      [this] { return stop_requested_; });
    if (stop_requested_) return;
  }
}

std::vector<PeerStatus> AggregatorSupervisor::PeerStatuses() const {
  int64_t now = MonotonicNowMs();
  std::vector<PeerStatus> statuses;
  statuses.reserve(peers_.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& peer : peers_) {
    PeerStatus status;
    status.name = peer->config.name;
    status.health = peer->health;
    status.consecutive_failures = peer->consecutive_failures;
    status.epoch = peer->epoch;
    status.last_success_age_ms =
        peer->last_success_ms < 0 ? -1 : now - peer->last_success_ms;
    status.epoch_regressions = peer->epoch_regressions;
    status.last_error = peer->last_error;
    statuses.push_back(std::move(status));
  }
  return statuses;
}

std::vector<std::string> AggregatorSupervisor::QueryWarnings() const {
  std::vector<std::string> warnings;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& peer : peers_) {
    if (peer->health != PeerHealth::kStale) continue;
    std::ostringstream line;
    line << "peer " << peer->config.name
         << " STALE: excluded from aggregate (consecutive_failures="
         << peer->consecutive_failures;
    if (!peer->last_error.empty()) {
      line << ", last error: " << peer->last_error;
    }
    line << ")";
    warnings.push_back(line.str());
  }
  return warnings;
}

uint64_t AggregatorSupervisor::folds_completed() const {
  return folds_completed_->load(std::memory_order_acquire);
}

}  // namespace implistat::cluster
