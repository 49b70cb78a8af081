// Cluster aggregation tier: a supervisor that owns a fleet of edge
// servers and keeps an aggregate QueryEngine fresh from their shipped
// snapshots — the paper's constrained-environment topology (§1, §6)
// operationalized: cheap edges summarize their local streams, and this
// component pulls the kilobyte summaries upward, survives edge crashes,
// and folds them into the answer a single process over the union stream
// would give.
//
// Semantics: replace-then-refold. The supervisor remembers every peer's
// latest state per fold unit (keyed by the peer's epoch — its tuples_seen
// at serialize time) and rebuilds the aggregate from scratch whenever any
// contribution changes: aggregate = fold(base, peers' latest states).
// Nothing ever accumulates into the aggregate twice, so a retried or
// duplicated ship is idempotent by construction, and an edge that
// crashes, restores from checkpoint and rejoins simply replaces its own
// stale contribution — the aggregate converges back to the
// single-process answer as soon as the edge catches up.
//
// Contributions: per peer and fold unit the supervisor holds one live
// estimator, the unit's state as of the last successful pull. Every pull
// is a SNAPSHOT_DELTA. For a delta-capable kind the estimator is a twin:
// patches keyed by the last acked epoch land in it, and its state stays
// byte-identical to the full snapshot the edge would have shipped, so
// only the wire cost shrinks. A kind without deltas names since_epoch 0
// and is answered in full every round, each snapshot decoded once as it
// arrives (a re-ship of the same bytes is recognized and not decoded
// again). A refold merges these estimators directly; no bytes travel
// between the pull and the fold.
// Any refusal (edge restart, evicted baseline, corrupt patch) falls back
// to a full snapshot in the same round — a "resync", counted in
// implistat_delta_resyncs_total — and re-arms delta pulls from there.
//
// Fetch, then apply: a pull collects every unit's response (and decodes
// every full snapshot) before it changes any contribution, so an edge
// that fails mid-pull keeps its contribution exactly as its last
// successful pull left it. One exception remains: when a patch is
// refused and its in-round resync then fails too, the units applied
// before it already moved on, so the peer's DEGRADED contribution mixes
// epochs until its next successful pull replaces it.
//
// Health state machine, per peer:
//
//   HEALTHY --failure--> DEGRADED --(stale_after_failures)--> STALE
//      ^                    |  ^                                |
//      +---- success -------+  +------------- success ---------+
//
// DEGRADED peers keep their last contribution in the fold (the data is
// good, just aging); STALE peers are excluded from the fold and reported
// in QUERY warnings until they answer again. Failed peers are retried on
// a bounded exponential backoff with deterministic jitter so a rebooting
// fleet does not see synchronized retry storms.
//
// Threading: PollOnce does all peer I/O and must be called from one
// thread at a time (Start() runs it on an internal thread). It also
// builds each refold: one fresh estimator per fold unit with the base
// and every included contribution merged in. The fold itself is a
// closure handed to a TaskRunner — inline by default (the supervisor
// owns the engine), or Server::InjectTask when the aggregate is
// simultaneously served over the wire (the fold then runs on the serving
// loop thread, preserving the engine's single-thread contract). The
// closure owns those finished estimators and only swaps them in, so it
// holds no reference to any twin: a fold that runs after the next poll
// has started patching twins stays correct without locks or copies.
// PeerStatuses() and QueryWarnings() are thread-safe readers.
//
// Hierarchy: an aggregator is itself a server, and its snapshot answer
// carries its folded state with epoch = sum of folded peer epochs, so a
// higher tier supervises aggregators exactly like edges — edge →
// mid-tier → root composes without new machinery.

#ifndef IMPLISTAT_CLUSTER_SUPERVISOR_H_
#define IMPLISTAT_CLUSTER_SUPERVISOR_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat::cluster {

struct PeerConfig {
  std::string host;
  uint16_t port = 0;
  /// Metrics label and log identity; defaults to "host:port" when empty.
  std::string name;
};

/// Parses "host:port" (e.g. "127.0.0.1:7070") into a PeerConfig.
StatusOr<PeerConfig> ParsePeerSpec(std::string_view spec);

enum class PeerHealth : uint8_t { kHealthy = 0, kDegraded = 1, kStale = 2 };

const char* PeerHealthName(PeerHealth health);

struct SupervisorOptions {
  /// Target gap between successful pulls from one peer.
  int64_t poll_interval_ms = 1000;
  /// Per-RPC deadline for SNAPSHOT_DELTA pulls (net::ClientOptions
  /// request_timeout_ms); a hung edge costs one deadline, never a wedge.
  int64_t rpc_deadline_ms = 2000;
  /// TCP connect timeout when (re)dialing a peer.
  int64_t connect_timeout_ms = 2000;
  /// Bounded exponential backoff after failures: the nth consecutive
  /// failure waits min(backoff_max_ms, backoff_initial_ms * 2^(n-1)),
  /// jittered uniformly into [delay/2, delay].
  int64_t backoff_initial_ms = 100;
  int64_t backoff_max_ms = 5000;
  /// Consecutive failures before a DEGRADED peer is declared STALE and
  /// its contribution dropped from the fold.
  int stale_after_failures = 3;
  /// Seed for the deterministic backoff jitter (tests pin it).
  uint64_t jitter_seed = 0xc105ce5;
};

/// The jittered backoff delay before retry number `consecutive_failures`
/// (>= 1). Exposed for unit tests; `rng` advances one draw per call.
int64_t BackoffDelayMs(const SupervisorOptions& options,
                       int consecutive_failures, Rng& rng);

/// Read-only view of one peer for status reporting and tests.
struct PeerStatus {
  std::string name;
  PeerHealth health = PeerHealth::kHealthy;
  int consecutive_failures = 0;
  /// Last successfully pulled epoch (the edge's tuples_seen).
  uint64_t epoch = 0;
  /// Milliseconds since the last successful pull; -1 before the first.
  int64_t last_success_age_ms = -1;
  /// Times the peer's epoch went backwards — an edge restart that
  /// rejoined from an older checkpoint.
  uint64_t epoch_regressions = 0;
  std::string last_error;
};

/// What one poll round did (tests drive PollOnce directly off these).
struct PollStats {
  int attempted = 0;  // peers whose backoff window was due
  int succeeded = 0;
  int failed = 0;
  /// True when the round changed any contribution (new epoch/snapshot,
  /// or a peer entered/left the fold) and a refold was scheduled.
  bool refolded = false;
  /// Per-fold-unit pull outcomes this round: patches applied to a twin,
  /// full snapshots shipped, and fulls that replaced an established
  /// delta baseline (edge restarted, baseline evicted, patch refused).
  int delta_pulls = 0;
  int full_pulls = 0;
  int resyncs = 0;
};

/// Runs a fold closure; see the threading note above.
using TaskRunner = std::function<void(std::function<void()>)>;

class AggregatorSupervisor {
 public:
  /// The engine is borrowed and must outlive the supervisor. With the
  /// default (inline) runner the supervisor may touch it from the poll
  /// thread; pass a Server::InjectTask-backed runner when the engine is
  /// simultaneously being served.
  AggregatorSupervisor(QueryEngine* aggregate, std::vector<PeerConfig> peers,
                       SupervisorOptions options = SupervisorOptions(),
                       TaskRunner fold_runner = TaskRunner());

  ~AggregatorSupervisor();

  AggregatorSupervisor(const AggregatorSupervisor&) = delete;
  AggregatorSupervisor& operator=(const AggregatorSupervisor&) = delete;

  /// Captures the aggregate engine's fold units and decodes its own
  /// pre-supervision state (a locally ingested CSV, a restored
  /// checkpoint) once into a base contribution included in every refold.
  /// Call once, before any poll, while the engine is still safe to touch
  /// from this thread; the supervisor never reads the engine again.
  /// FailedPrecondition, naming the query and its estimator, when a fold
  /// unit's kind cannot merge (a windowed or ISS query): every refold
  /// would fail on it, so such an engine cannot be an aggregate. On
  /// success the engine is marked an aggregate (QueryEngine::
  /// MarkAggregate) and refuses writes, which the next refold would drop.
  Status Init();

  /// One supervision round at (monotonic) time `now_ms`: attempts every
  /// peer whose backoff window is due, updates health states and metrics,
  /// and schedules a refold if any contribution changed. Tests pass a
  /// synthetic clock to step through backoff and staleness transitions
  /// deterministically; Start() feeds the real one.
  PollStats PollOnce(int64_t now_ms);
  PollStats PollOnce();

  /// Runs PollOnce on an internal thread until Stop(). Idempotent.
  void Start();
  void Stop();

  /// When the next peer attempt is due (for the internal sleep and for
  /// tests); now + poll interval when nothing is pending.
  int64_t NextAttemptAtMs(int64_t now_ms) const;

  std::vector<PeerStatus> PeerStatuses() const;

  /// Human-readable exclusion report: one line per STALE peer. Wire this
  /// into ServerOptions::query_warnings so remote QUERY readers see that
  /// the aggregate is a partial view. Thread-safe.
  std::vector<std::string> QueryWarnings() const;

  /// Completed refolds (mirrors implistat_cluster_folds_total).
  uint64_t folds_completed() const;

 private:
  struct Peer;
  struct Metrics;
  struct UnitPull;

  // Pulls every fold unit from `peer`: fetches (and decodes) all
  // responses first, then applies them; OK only if all arrive. Pull-mode
  // counts and resyncs are tallied into `stats`.
  Status PullPeer(Peer& peer, PollStats* stats);
  // Requests unit `u`'s state with SNAPSHOT_DELTA against the acked
  // epoch (0, a full answer, for a kind without deltas) and decodes a
  // full answer into a fresh estimator without touching the unit's
  // contribution.
  Status FetchUnit(Peer& peer, size_t u, UnitPull* pull);
  // Lands a fetched response in unit `u`'s contribution: applies the
  // patch to the twin or installs the decoded snapshot. A refused patch
  // resyncs with a full pull in the same round. Returns whether the
  // contribution changed; `epoch` receives the response's epoch.
  StatusOr<bool> ApplyUnit(Peer& peer, size_t u, UnitPull pull,
                           uint64_t* epoch, PollStats* stats);
  // A fresh estimator from unit `u`'s recipe with the base and every
  // `included` peer's contribution merged in.
  StatusOr<std::unique_ptr<ImplicationEstimator>> MergeUnit(
      size_t u, const std::vector<const Peer*>& included) const;
  // Merges every unit on this thread, then hands the swap to the fold
  // runner.
  void ScheduleRefold();
  void RunLoop();

  QueryEngine* engine_;
  SupervisorOptions options_;
  TaskRunner fold_runner_;
  /// The aggregate engine's fold units, captured at Init(): one per live
  /// synopsis, addressed over the wire by its representative query id
  /// and rebuilt from its recipe. Folding per unit (not per query) means
  /// a synopsis shared by n queries is pulled and refolded exactly once
  /// per round instead of n times — and can never double-count.
  std::vector<QueryEngine::FoldUnit> fold_units_;

  // Base contribution (the engine's own pre-supervision state), one
  // decoded estimator per fold unit; empty when the engine started empty.
  std::vector<std::unique_ptr<ImplicationEstimator>> base_;
  uint64_t base_tuples_ = 0;
  bool initialized_ = false;

  // Poll-thread state: peers (clients, contributions, schedule) and
  // jitter.
  std::vector<std::unique_ptr<Peer>> peers_;
  Rng jitter_rng_;
  bool fold_dirty_ = false;

  // Reader-visible state is guarded by mu_ (PollOnce writes, any thread
  // reads); folds_completed_ is written by the fold closure, which may
  // run on a different thread than the poller.
  mutable std::mutex mu_;
  std::shared_ptr<std::atomic<uint64_t>> folds_completed_ =
      std::make_shared<std::atomic<uint64_t>>(0);

  // Run loop machinery.
  std::thread thread_;
  std::mutex loop_mu_;
  std::condition_variable loop_cv_;
  bool stop_requested_ = false;

  const Metrics* metrics_ = nullptr;
};

}  // namespace implistat::cluster

#endif  // IMPLISTAT_CLUSTER_SUPERVISOR_H_
