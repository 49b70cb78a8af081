// AggregatorSupervisor tests over real edge servers on loopback:
// multi-edge convergence to the single-process answer, idempotent
// re-shipping (replace-then-refold), HEALTHY → DEGRADED → STALE health
// transitions with fold exclusion and warning reporting, backoff
// scheduling, the crash → restore-from-checkpoint → rejoin flow
// converging with no double counting, and the direct fold of live twins
// staying byte-identical to the reference refold of full snapshots
// (queued folds, pulls that fail part-way). Polls are driven with a
// synthetic clock so every backoff and staleness transition is
// deterministic.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/supervisor.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat::cluster {
namespace {

Schema TestSchema() {
  return Schema({{"Source", 97}, {"Destination", 47}, {"Hour", 24}});
}

ImplicationQuerySpec ExactSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.estimator.kind = EstimatorKind::kExact;
  spec.label = "exact";
  return spec;
}

ImplicationQuerySpec NipsSpec() {
  ImplicationQuerySpec spec = ExactSpec();
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.nips.num_bitmaps = 8;
  spec.label = "nips";
  return spec;
}

void RegisterSuite(QueryEngine& engine) {
  ASSERT_TRUE(engine.Register(ExactSpec()).ok());
  ASSERT_TRUE(engine.Register(NipsSpec()).ok());
}

std::vector<ValueId> Row(uint64_t i) {
  return {static_cast<ValueId>(i % 97),
          static_cast<ValueId>((i % 7 == 0) ? i % 47 : (i % 97) % 13),
          static_cast<ValueId>(i % 24)};
}

void FeedLocal(QueryEngine& engine, uint64_t begin, uint64_t end) {
  for (uint64_t i = begin; i < end; ++i) {
    std::vector<ValueId> row = Row(i);
    engine.ObserveTuple(TupleRef(row.data(), row.size()));
  }
}

net::ObserveBatchRequest IdBatch(uint64_t begin, uint64_t end) {
  net::ObserveBatchRequest batch;
  batch.encoding = net::ObserveEncoding::kIds;
  batch.width = 3;
  for (uint64_t i = begin; i < end; ++i) {
    for (ValueId id : Row(i)) batch.ids.push_back(id);
  }
  return batch;
}

// An edge server the tests can stop and restart (optionally from a
// checkpoint) on a stable port — the supervisor's view of a crashing,
// rejoining fleet member.
class Edge {
 public:
  Edge() { Reset(); }
  ~Edge() { Stop(); }

  // Replaces the engine with a fresh one (only while stopped).
  void Reset() { engine_ = std::make_unique<QueryEngine>(TestSchema()); }

  QueryEngine& engine() { return *engine_; }

  void Start() {
    net::ServerOptions options;
    options.port = port_;  // 0 first time; the bound port afterwards
    server_ = std::make_unique<net::Server>(engine_.get(), options);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    port_ = server_->port();
    thread_ = std::thread([this] { (void)server_->Run(); });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    server_->Shutdown();
    thread_.join();
    server_.reset();
  }

  uint16_t port() const { return port_; }
  PeerConfig Config(const std::string& name) const {
    return PeerConfig{"127.0.0.1", port_, name};
  }

  StatusOr<net::Client> Connect() {
    return net::Client::Connect("127.0.0.1", port_);
  }

 private:
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
  uint16_t port_ = 0;
};

// Fast, fully deterministic supervision timings for synthetic clocks.
SupervisorOptions TestOptions() {
  SupervisorOptions options;
  options.poll_interval_ms = 1000;
  options.rpc_deadline_ms = 2000;
  options.connect_timeout_ms = 500;
  options.backoff_initial_ms = 100;
  options.backoff_max_ms = 400;
  options.stale_after_failures = 3;
  options.jitter_seed = 42;
  return options;
}

void ExpectSameAnswers(QueryEngine& aggregate, QueryEngine& expected) {
  ASSERT_EQ(aggregate.num_queries(), expected.num_queries());
  for (QueryId id = 0; id < aggregate.num_queries(); ++id) {
    auto got = aggregate.Answer(id);
    auto want = expected.Answer(id);
    ASSERT_TRUE(got.ok() && want.ok());
    // Exact double equality: the exact estimator is ground truth and the
    // NIPS bitmap fold is an OR, so a correct fold is bit-identical to
    // the single-process run — any tolerance would hide double counting.
    EXPECT_EQ(*got, *want) << "query " << id;
  }
}

// The same two queries with the NIPS/CI one first, so fold unit 0 is the
// delta-capable unit and unit 1 the exact (full-pull) one.
void RegisterNipsFirst(QueryEngine& engine) {
  ASSERT_TRUE(engine.Register(NipsSpec()).ok());
  ASSERT_TRUE(engine.Register(ExactSpec()).ok());
}

// SerializeState of every fold unit of `engine`, in fold-unit order.
std::vector<std::string> FoldUnitStates(QueryEngine& engine) {
  std::vector<std::string> states;
  for (const QueryEngine::FoldUnit& unit : engine.FoldUnits()) {
    auto estimator = engine.Estimator(unit.representative);
    EXPECT_TRUE(estimator.ok());
    if (!estimator.ok()) return states;
    auto state = (*estimator)->SerializeState();
    EXPECT_TRUE(state.ok());
    states.push_back(state.ok() ? *state : std::string());
  }
  return states;
}

// Unit-by-unit byte equality, reporting where the first difference sits
// (the states are binary; gtest's dump of them is unreadable).
void ExpectSameUnitStates(const std::vector<std::string>& got,
                          const std::vector<std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t u = 0; u < want.size(); ++u) {
    if (got[u] == want[u]) continue;
    size_t at = 0;
    while (at < got[u].size() && at < want[u].size() &&
           got[u][at] == want[u][at]) {
      ++at;
    }
    ADD_FAILURE() << "fold unit " << u << " differs at byte " << at << " of "
                  << want[u].size() << " (got " << got[u].size() << ")";
  }
}

// Every fold unit of `aggregate` pulled from `edge` as a full SNAPSHOT.
std::vector<std::string> FullPulls(Edge& edge, QueryEngine& aggregate) {
  std::vector<std::string> states;
  auto client = edge.Connect();
  EXPECT_TRUE(client.ok());
  if (!client.ok()) return states;
  for (const QueryEngine::FoldUnit& unit : aggregate.FoldUnits()) {
    auto full =
        client->Snapshot(static_cast<uint32_t>(unit.representative));
    EXPECT_TRUE(full.ok()) << full.status();
    states.push_back(full.ok() ? full->state : std::string());
  }
  return states;
}

// Byte identity with the reference path: RefoldSynopsisState over
// `contributions` (one state per fold unit each, in fold order — base
// first, then peers in supervision order) must reproduce every fold
// unit of `aggregate` bit for bit.
void ExpectFoldMatchesReference(
    QueryEngine& aggregate,
    const std::vector<std::vector<std::string>>& contributions,
    void (*registrar)(QueryEngine&) = RegisterSuite) {
  QueryEngine reference(TestSchema());
  registrar(reference);
  const std::vector<QueryEngine::FoldUnit> units = reference.FoldUnits();
  ASSERT_EQ(units.size(), aggregate.FoldUnits().size());
  for (size_t u = 0; u < units.size(); ++u) {
    std::vector<std::string_view> views;
    for (const std::vector<std::string>& states : contributions) {
      ASSERT_EQ(states.size(), units.size());
      views.push_back(states[u]);
    }
    Status refolded = reference.RefoldSynopsisState(units[u].synopsis, views);
    ASSERT_TRUE(refolded.ok()) << refolded;
  }
  ExpectSameUnitStates(FoldUnitStates(aggregate), FoldUnitStates(reference));
}

TEST(ClusterBackoffTest, DelaysDoubleAndCapWithJitterInRange) {
  SupervisorOptions options = TestOptions();
  options.backoff_initial_ms = 100;
  options.backoff_max_ms = 5000;
  Rng rng(7);
  for (int failures = 1; failures <= 12; ++failures) {
    int64_t raw = options.backoff_initial_ms;
    for (int i = 1; i < failures && raw < options.backoff_max_ms; ++i) {
      raw = std::min<int64_t>(options.backoff_max_ms, raw * 2);
    }
    for (int draw = 0; draw < 8; ++draw) {
      int64_t delay = BackoffDelayMs(options, failures, rng);
      EXPECT_GE(delay, raw / 2) << "failures=" << failures;
      EXPECT_LE(delay, raw) << "failures=" << failures;
    }
  }
  // Same seed, same schedule: the jitter is deterministic.
  Rng a(99), b(99);
  for (int failures = 1; failures <= 6; ++failures) {
    EXPECT_EQ(BackoffDelayMs(options, failures, a),
              BackoffDelayMs(options, failures, b));
  }
}

TEST(ClusterSupervisorTest, ThreeEdgeConvergenceAndIdempotentReship) {
  Edge edges[3];
  for (int i = 0; i < 3; ++i) {
    RegisterSuite(edges[i].engine());
    FeedLocal(edges[i].engine(), static_cast<uint64_t>(i) * 400,
              static_cast<uint64_t>(i + 1) * 400);
    edges[i].Start();
  }

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  AggregatorSupervisor supervisor(
      &aggregate,
      {edges[0].Config("a"), edges[1].Config("b"), edges[2].Config("c")},
      TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());

  PollStats first = supervisor.PollOnce(0);
  EXPECT_EQ(first.attempted, 3);
  EXPECT_EQ(first.succeeded, 3);
  EXPECT_TRUE(first.refolded);
  EXPECT_EQ(supervisor.folds_completed(), 1u);

  QueryEngine single(TestSchema());
  RegisterSuite(single);
  FeedLocal(single, 0, 1200);
  ExpectSameAnswers(aggregate, single);
  EXPECT_EQ(aggregate.tuples_seen(), 1200u);

  // Nothing changed at the edges: re-pulling the same snapshots (the
  // "retried ship") is recognized by the unchanged epochs and refolded
  // zero times — and even if it were refolded, replace-then-refold would
  // produce the same state. No double counting either way.
  PollStats second = supervisor.PollOnce(1000);
  EXPECT_EQ(second.succeeded, 3);
  EXPECT_FALSE(second.refolded);
  EXPECT_EQ(supervisor.folds_completed(), 1u);
  ExpectSameAnswers(aggregate, single);
  EXPECT_EQ(aggregate.tuples_seen(), 1200u);

  // New rows at one edge flow through on the next poll.
  {
    auto client = edges[0].Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(1200, 1500)).ok());
  }
  PollStats third = supervisor.PollOnce(2000);
  EXPECT_TRUE(third.refolded);
  FeedLocal(single, 1200, 1500);
  ExpectSameAnswers(aggregate, single);
  EXPECT_EQ(aggregate.tuples_seen(), 1500u);

  auto statuses = supervisor.PeerStatuses();
  ASSERT_EQ(statuses.size(), 3u);
  for (const PeerStatus& status : statuses) {
    EXPECT_EQ(status.health, PeerHealth::kHealthy) << status.name;
    EXPECT_EQ(status.consecutive_failures, 0);
  }
  EXPECT_TRUE(supervisor.QueryWarnings().empty());
}

TEST(ClusterSupervisorTest, LocalBaseStateJoinsTheFold) {
  Edge edge;
  RegisterSuite(edge.engine());
  FeedLocal(edge.engine(), 0, 500);
  edge.Start();

  // The aggregate engine has its own locally observed rows before
  // supervision begins; they must survive every refold.
  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  FeedLocal(aggregate, 500, 800);

  AggregatorSupervisor supervisor(&aggregate, {edge.Config("edge")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  EXPECT_TRUE(supervisor.PollOnce(0).refolded);

  QueryEngine single(TestSchema());
  RegisterSuite(single);
  FeedLocal(single, 0, 800);
  ExpectSameAnswers(aggregate, single);
  EXPECT_EQ(aggregate.tuples_seen(), 800u);
}

// A refold merges every unit; a unit whose kind cannot merge would fail
// every refold, so Init() refuses it before any poll, naming the query.
TEST(ClusterSupervisorTest, InitRefusesUnitsThatCannotMerge) {
  ImplicationQuerySpec windowed = NipsSpec();
  windowed.estimator.window = 1000;
  windowed.estimator.stride = 250;
  windowed.label = "windowed";
  ImplicationQuerySpec iss = ExactSpec();
  iss.estimator.kind = EstimatorKind::kIss;
  iss.label = "iss";
  for (const ImplicationQuerySpec& spec : {windowed, iss}) {
    SCOPED_TRACE(spec.label);
    QueryEngine aggregate(TestSchema());
    ASSERT_TRUE(aggregate.Register(NipsSpec()).ok());
    auto id = aggregate.Register(spec);
    ASSERT_TRUE(id.ok()) << id.status();
    AggregatorSupervisor supervisor(&aggregate, {{"127.0.0.1", 1, "edge"}},
                                    TestOptions());
    Status init = supervisor.Init();
    EXPECT_EQ(init.code(), StatusCode::kFailedPrecondition) << init;
    const std::string message(init.message());
    EXPECT_NE(message.find("query " + std::to_string(*id)), std::string::npos)
        << message;
    auto estimator = aggregate.Estimator(*id);
    ASSERT_TRUE(estimator.ok());
    EXPECT_NE(message.find((*estimator)->name()), std::string::npos)
        << message;
  }
}

TEST(ClusterSupervisorTest, HealthTransitionsStaleExclusionAndRecovery) {
  Edge edge_a;
  Edge edge_b;
  RegisterSuite(edge_a.engine());
  RegisterSuite(edge_b.engine());
  FeedLocal(edge_a.engine(), 0, 300);
  FeedLocal(edge_b.engine(), 300, 600);
  edge_a.Start();
  edge_b.Start();

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  AggregatorSupervisor supervisor(&aggregate,
                                  {edge_a.Config("a"), edge_b.Config("b")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  EXPECT_TRUE(supervisor.PollOnce(0).refolded);

  QueryEngine both(TestSchema());
  RegisterSuite(both);
  FeedLocal(both, 0, 600);
  ExpectSameAnswers(aggregate, both);

  // Edge A dies. Failures accumulate across backoff windows: DEGRADED
  // keeps its last snapshot in the fold; the stale_after_failures-th
  // failure tips it to STALE and out of the fold.
  edge_a.Stop();
  int64_t now = 1000;
  PollStats degraded = supervisor.PollOnce(now);
  EXPECT_EQ(degraded.failed, 1);
  EXPECT_FALSE(degraded.refolded);  // still included, fold unchanged
  auto statuses = supervisor.PeerStatuses();
  EXPECT_EQ(statuses[0].health, PeerHealth::kDegraded);
  EXPECT_EQ(statuses[0].consecutive_failures, 1);
  ExpectSameAnswers(aggregate, both);  // last good snapshot still folded
  EXPECT_TRUE(supervisor.QueryWarnings().empty());

  // Step past each backoff window until the peer goes STALE.
  int rounds = 0;
  while (supervisor.PeerStatuses()[0].health != PeerHealth::kStale) {
    now += 1000;  // > backoff_max_ms, so the retry is always due
    supervisor.PollOnce(now);
    ASSERT_LT(++rounds, 10) << "peer never went STALE";
  }
  EXPECT_GE(supervisor.PeerStatuses()[0].consecutive_failures, 3);

  // STALE excludes the contribution: the aggregate now answers from B
  // alone, and QUERY warnings say so.
  QueryEngine only_b(TestSchema());
  RegisterSuite(only_b);
  FeedLocal(only_b, 300, 600);
  ExpectSameAnswers(aggregate, only_b);
  EXPECT_EQ(aggregate.tuples_seen(), 300u);
  auto warnings = supervisor.QueryWarnings();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("peer a"), std::string::npos) << warnings[0];
  EXPECT_NE(warnings[0].find("STALE"), std::string::npos) << warnings[0];

  // The edge comes back with its data intact: one successful pull makes
  // it HEALTHY again and the fold re-converges to the full answer.
  edge_a.Reset();
  RegisterSuite(edge_a.engine());
  FeedLocal(edge_a.engine(), 0, 300);
  edge_a.Start();
  now += 10000;
  PollStats recovered = supervisor.PollOnce(now);
  EXPECT_EQ(recovered.failed, 0);
  EXPECT_TRUE(recovered.refolded);
  EXPECT_EQ(supervisor.PeerStatuses()[0].health, PeerHealth::kHealthy);
  EXPECT_TRUE(supervisor.QueryWarnings().empty());
  ExpectSameAnswers(aggregate, both);
  EXPECT_EQ(aggregate.tuples_seen(), 600u);
}

TEST(ClusterSupervisorTest, CheckpointRestartRejoinConvergesNoDoubleCount) {
  const std::string ckpt = ::testing::TempDir() + "/cluster_edge_a.ckpt";

  // Edge A checkpoints mid-stream, then keeps going; edge B is steady.
  Edge edge_a;
  Edge edge_b;
  RegisterSuite(edge_a.engine());
  FeedLocal(edge_a.engine(), 0, 400);
  ASSERT_TRUE(edge_a.engine().Checkpoint(ckpt).ok());
  FeedLocal(edge_a.engine(), 400, 600);
  RegisterSuite(edge_b.engine());
  FeedLocal(edge_b.engine(), 600, 1200);
  edge_a.Start();
  edge_b.Start();

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  SupervisorOptions options = TestOptions();
  AggregatorSupervisor supervisor(&aggregate,
                                  {edge_a.Config("a"), edge_b.Config("b")},
                                  options);
  ASSERT_TRUE(supervisor.Init().ok());
  EXPECT_TRUE(supervisor.PollOnce(0).refolded);

  QueryEngine full(TestSchema());
  RegisterSuite(full);
  FeedLocal(full, 0, 1200);
  ExpectSameAnswers(aggregate, full);
  EXPECT_EQ(supervisor.PeerStatuses()[0].epoch, 600u);

  // Crash edge A (kill mid-ship: the supervisor's in-flight pulls fail)
  // and drive it STALE.
  edge_a.Stop();
  int64_t now = 0;
  int rounds = 0;
  while (supervisor.PeerStatuses()[0].health != PeerHealth::kStale) {
    now += 1000;
    supervisor.PollOnce(now);
    ASSERT_LT(++rounds, 10);
  }

  // Restart from the checkpoint: the edge rejoins at epoch 400 — an
  // epoch regression the supervisor records — and its stale 600-tuple
  // contribution is REPLACED by the 400-tuple one, not added to it.
  edge_a.Reset();
  ASSERT_TRUE(edge_a.engine().Restore(ckpt).ok());
  ASSERT_EQ(edge_a.engine().tuples_seen(), 400u);
  edge_a.Start();
  now += 10000;
  PollStats rejoin = supervisor.PollOnce(now);
  EXPECT_TRUE(rejoin.refolded);
  auto status_a = supervisor.PeerStatuses()[0];
  EXPECT_EQ(status_a.health, PeerHealth::kHealthy);
  EXPECT_EQ(status_a.epoch, 400u);
  EXPECT_EQ(status_a.epoch_regressions, 1u);

  QueryEngine partial(TestSchema());
  RegisterSuite(partial);
  FeedLocal(partial, 0, 400);
  FeedLocal(partial, 600, 1200);
  ExpectSameAnswers(aggregate, partial);
  EXPECT_EQ(aggregate.tuples_seen(), 1000u);

  // The edge replays its lost tail; the next poll converges the cluster
  // back to the exact single-process answer. The exact-estimator match
  // proves nothing was counted twice across the crash/rejoin cycle.
  {
    auto client = edge_a.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(400, 600)).ok());
  }
  now += 1000;
  EXPECT_TRUE(supervisor.PollOnce(now).refolded);
  ExpectSameAnswers(aggregate, full);
  EXPECT_EQ(aggregate.tuples_seen(), 1200u);

  std::remove(ckpt.c_str());
}

TEST(ClusterDeltaTest, DeltaPullsPatchIntoTheFoldExactly) {
  Edge edge;
  RegisterSuite(edge.engine());
  FeedLocal(edge.engine(), 0, 600);
  edge.Start();

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  AggregatorSupervisor supervisor(&aggregate, {edge.Config("edge")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());

  // Bootstrap round: no baseline on either side yet, so both fold units
  // ship full snapshots — and none of those fulls counts as a resync.
  PollStats first = supervisor.PollOnce(0);
  EXPECT_EQ(first.succeeded, 1);
  EXPECT_EQ(first.delta_pulls, 0);
  EXPECT_EQ(first.full_pulls, 2);  // exact + nips fold units
  EXPECT_EQ(first.resyncs, 0);

  QueryEngine single(TestSchema());
  RegisterSuite(single);
  FeedLocal(single, 0, 600);
  ExpectSameAnswers(aggregate, single);

  // New rows: the NIPS unit ships a patch against the acked epoch; the
  // exact estimator has no delta materializer and stays on full pulls.
  // The fold over the patched twin matches the single-process run bit
  // for bit — the twin's serialized state is the same bytes a full
  // snapshot would have carried.
  {
    auto client = edge.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(600, 900)).ok());
  }
  PollStats second = supervisor.PollOnce(1000);
  EXPECT_TRUE(second.refolded);
  EXPECT_EQ(second.delta_pulls, 1);
  EXPECT_EQ(second.full_pulls, 1);
  EXPECT_EQ(second.resyncs, 0);
  FeedLocal(single, 600, 900);
  ExpectSameAnswers(aggregate, single);
  EXPECT_EQ(aggregate.tuples_seen(), 900u);

  // Quiet round: the patch is empty, the twin's state is unchanged, and
  // the refold is skipped exactly as it would be with full pulls.
  PollStats third = supervisor.PollOnce(2000);
  EXPECT_FALSE(third.refolded);
  EXPECT_EQ(third.delta_pulls, 1);
  EXPECT_EQ(third.resyncs, 0);
}

TEST(ClusterDeltaTest, EdgeRestartForcesResyncThenDeltasResume) {
  const std::string ckpt = ::testing::TempDir() + "/delta_edge.ckpt";
  Edge edge;
  RegisterSuite(edge.engine());
  FeedLocal(edge.engine(), 0, 400);
  ASSERT_TRUE(edge.engine().Checkpoint(ckpt).ok());
  FeedLocal(edge.engine(), 400, 600);
  edge.Start();

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  AggregatorSupervisor supervisor(&aggregate, {edge.Config("edge")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  EXPECT_TRUE(supervisor.PollOnce(0).refolded);

  // Establish the delta baseline with one patched round.
  {
    auto client = edge.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(600, 700)).ok());
  }
  PollStats patched = supervisor.PollOnce(1000);
  EXPECT_EQ(patched.delta_pulls, 1);
  EXPECT_EQ(patched.resyncs, 0);

  // Crash the edge and restore it from the checkpoint: the acked epoch
  // (700) no longer exists over there — a checkpoint restore drops the
  // delta baselines — so the next patch request is answered with a full
  // snapshot: one counted resync, after which deltas re-arm.
  edge.Stop();
  edge.Reset();
  ASSERT_TRUE(edge.engine().Restore(ckpt).ok());
  edge.Start();
  PollStats dead = supervisor.PollOnce(5000);
  EXPECT_EQ(dead.failed, 1);  // the old connection died with the edge
  PollStats rejoin = supervisor.PollOnce(6000);
  ASSERT_EQ(rejoin.succeeded, 1);
  EXPECT_EQ(rejoin.delta_pulls, 0);
  EXPECT_EQ(rejoin.resyncs, 1);
  EXPECT_EQ(supervisor.PeerStatuses()[0].epoch_regressions, 1u);

  QueryEngine partial(TestSchema());
  RegisterSuite(partial);
  FeedLocal(partial, 0, 400);
  ExpectSameAnswers(aggregate, partial);

  // The edge replays its lost tail; the pull is a patch again, against
  // the post-restart baseline, and the cluster converges back to the
  // single-process answer with nothing counted twice.
  {
    auto client = edge.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(400, 700)).ok());
  }
  PollStats resumed = supervisor.PollOnce(7000);
  EXPECT_EQ(resumed.delta_pulls, 1);
  EXPECT_EQ(resumed.resyncs, 0);
  QueryEngine single(TestSchema());
  RegisterSuite(single);
  FeedLocal(single, 0, 700);
  ExpectSameAnswers(aggregate, single);

  std::remove(ckpt.c_str());
}

// A plain SNAPSHOT is a read, not a delta baseline: however many of them
// land between two polls, the supervisor's own baseline survives and the
// next poll is still a patch.
TEST(ClusterDeltaTest, PlainSnapshotSetsNoDeltaBaseline) {
  auto register_nips = [](QueryEngine& engine) {
    ASSERT_TRUE(engine.Register(NipsSpec()).ok());
  };
  Edge edge;
  register_nips(edge.engine());
  FeedLocal(edge.engine(), 0, 500);
  edge.Start();

  QueryEngine aggregate(TestSchema());
  register_nips(aggregate);
  AggregatorSupervisor supervisor(&aggregate, {edge.Config("edge")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  ASSERT_EQ(supervisor.PollOnce(0).full_pulls, 1);

  auto client = edge.Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->ObserveBatch(IdBatch(500, 600)).ok());
  PollStats patched = supervisor.PollOnce(1000);
  ASSERT_EQ(patched.delta_pulls, 1);

  // More plain reads at new epochs than the edge remembers baselines.
  const uint32_t query =
      static_cast<uint32_t>(aggregate.FoldUnits()[0].representative);
  for (uint64_t row = 600; row < 609; ++row) {
    ASSERT_TRUE(client->ObserveBatch(IdBatch(row, row + 1)).ok());
    ASSERT_TRUE(client->Snapshot(query).ok());
  }
  PollStats after = supervisor.PollOnce(2000);
  EXPECT_EQ(after.delta_pulls, 1);
  EXPECT_EQ(after.full_pulls, 0);
  EXPECT_EQ(after.resyncs, 0);

  QueryEngine single(TestSchema());
  register_nips(single);
  FeedLocal(single, 0, 609);
  ExpectSameAnswers(aggregate, single);
}

// Every pull is a SNAPSHOT_DELTA: a kind without deltas (the exact unit)
// names since_epoch 0 and is answered in full every round, so no round
// ever sends a plain SNAPSHOT.
TEST(ClusterDeltaTest, KindsWithoutDeltasShipFullEveryRound) {
  Edge edge;
  RegisterSuite(edge.engine());
  FeedLocal(edge.engine(), 0, 500);
  edge.Start();
  QueryEngine single(TestSchema());
  RegisterSuite(single);
  FeedLocal(single, 0, 500);

  // The request counter is process-wide; compare it before and after.
  obs::Counter* snapshot_requests = obs::MetricsRegistry::Global().GetCounter(
      "implistat_net_requests_total", "Requests handled, by type", "type",
      "snapshot");
  const uint64_t snapshots_before = snapshot_requests->Value();

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  AggregatorSupervisor supervisor(&aggregate, {edge.Config("edge")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  PollStats bootstrap = supervisor.PollOnce(0);
  EXPECT_EQ(bootstrap.delta_pulls, 0);
  EXPECT_EQ(bootstrap.full_pulls, 2);  // exact + nips fold units
  EXPECT_EQ(bootstrap.resyncs, 0);
  ExpectSameAnswers(aggregate, single);

  // Each round after an ingest patches the NIPS/CI twin and re-ships the
  // exact unit in full; neither counts as a resync.
  for (uint64_t round = 1; round <= 2; ++round) {
    const uint64_t begin = 500 + (round - 1) * 200;
    {
      auto client = edge.Connect();
      ASSERT_TRUE(client.ok());
      ASSERT_TRUE(client->ObserveBatch(IdBatch(begin, begin + 200)).ok());
    }
    PollStats stats = supervisor.PollOnce(static_cast<int64_t>(round) * 1000);
    EXPECT_TRUE(stats.refolded);
    EXPECT_EQ(stats.delta_pulls, 1);
    EXPECT_EQ(stats.full_pulls, 1);
    EXPECT_EQ(stats.resyncs, 0);
    FeedLocal(single, begin, begin + 200);
    ExpectSameAnswers(aggregate, single);
  }

  if (obs::kMetricsEnabled) {
    EXPECT_EQ(snapshot_requests->Value(), snapshots_before);
  }
}

// The fold merges the live twins directly; it must produce the very bytes
// the reference path (RefoldSynopsisState over full snapshots) produces,
// through bootstrap, patched rounds, a quiet round and a restart resync.
TEST(ClusterFoldTest, DirectFoldIsByteIdenticalToTheReferenceRefold) {
  const std::string ckpt = ::testing::TempDir() + "/fold_edge_a.ckpt";
  Edge edge_a;
  Edge edge_b;
  RegisterSuite(edge_a.engine());
  FeedLocal(edge_a.engine(), 0, 300);
  ASSERT_TRUE(edge_a.engine().Checkpoint(ckpt).ok());
  FeedLocal(edge_a.engine(), 300, 400);
  RegisterSuite(edge_b.engine());
  FeedLocal(edge_b.engine(), 400, 800);
  edge_a.Start();
  edge_b.Start();

  // The aggregate's own rows are the base contribution.
  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  FeedLocal(aggregate, 800, 1000);
  const std::vector<std::string> base = FoldUnitStates(aggregate);
  AggregatorSupervisor supervisor(&aggregate,
                                  {edge_a.Config("a"), edge_b.Config("b")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  auto expect_reference = [&] {
    ExpectFoldMatchesReference(
        aggregate, {base, FullPulls(edge_a, aggregate),
                    FullPulls(edge_b, aggregate)});
  };

  PollStats bootstrap = supervisor.PollOnce(0);
  ASSERT_TRUE(bootstrap.refolded);
  EXPECT_EQ(bootstrap.full_pulls, 4);
  expect_reference();

  // Both edges ingest: the NIPS/CI units patch their twins, the exact
  // units re-ship in full.
  {
    auto client_a = edge_a.Connect();
    auto client_b = edge_b.Connect();
    ASSERT_TRUE(client_a.ok() && client_b.ok());
    ASSERT_TRUE(client_a->ObserveBatch(IdBatch(1000, 1100)).ok());
    ASSERT_TRUE(client_b->ObserveBatch(IdBatch(1100, 1300)).ok());
  }
  PollStats patched = supervisor.PollOnce(1000);
  ASSERT_TRUE(patched.refolded);
  EXPECT_EQ(patched.delta_pulls, 2);
  EXPECT_EQ(patched.full_pulls, 2);
  expect_reference();

  // Quiet round: nothing moved, nothing refolds, the bytes still match.
  PollStats quiet = supervisor.PollOnce(2000);
  EXPECT_FALSE(quiet.refolded);
  expect_reference();

  // Edge A restarts from its checkpoint: one failed poll (the old
  // connection died), then a resync that replaces A's twin.
  edge_a.Stop();
  edge_a.Reset();
  ASSERT_TRUE(edge_a.engine().Restore(ckpt).ok());
  edge_a.Start();
  EXPECT_EQ(supervisor.PollOnce(3000).failed, 1);
  PollStats rejoin = supervisor.PollOnce(4000);
  ASSERT_EQ(rejoin.succeeded, 2);
  EXPECT_TRUE(rejoin.refolded);
  EXPECT_EQ(rejoin.resyncs, 1);
  EXPECT_EQ(aggregate.tuples_seen(), 200u + 300u + 600u);
  expect_reference();

  // Deltas resume against the post-restart baseline.
  {
    auto client = edge_a.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(300, 400)).ok());
  }
  PollStats resumed = supervisor.PollOnce(5000);
  EXPECT_TRUE(resumed.refolded);
  EXPECT_EQ(resumed.delta_pulls, 2);
  EXPECT_EQ(resumed.resyncs, 0);
  expect_reference();

  std::remove(ckpt.c_str());
}

// A runner that queues folds: the next poll patches the twins while an
// earlier fold is still pending. Each fold must carry the state of the
// poll that scheduled it, not whatever the twins hold when it runs. The
// bytes are checked against the reference refold of a single-process
// engine at that epoch (a fold never reproduces a streamed estimator's
// own bytes: the exact counter serializes in hash-map order), the
// answers against the engine itself.
TEST(ClusterFoldTest, QueuedFoldOwnsItsInputs) {
  Edge edge;
  RegisterSuite(edge.engine());
  FeedLocal(edge.engine(), 0, 600);
  edge.Start();

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  std::vector<std::function<void()>> queued;
  AggregatorSupervisor supervisor(
      &aggregate, {edge.Config("edge")}, TestOptions(),
      [&queued](std::function<void()> task) {
        queued.push_back(std::move(task));
      });
  ASSERT_TRUE(supervisor.Init().ok());

  ASSERT_TRUE(supervisor.PollOnce(0).refolded);
  {
    auto client = edge.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(600, 900)).ok());
  }
  PollStats second = supervisor.PollOnce(1000);
  ASSERT_TRUE(second.refolded);
  EXPECT_EQ(second.delta_pulls, 1);  // the twin moved on under fold 1
  ASSERT_EQ(queued.size(), 2u);
  EXPECT_EQ(supervisor.folds_completed(), 0u);

  QueryEngine single(TestSchema());
  RegisterSuite(single);
  FeedLocal(single, 0, 600);
  queued[0]();
  ExpectFoldMatchesReference(aggregate, {FoldUnitStates(single)});
  ExpectSameAnswers(aggregate, single);
  EXPECT_EQ(aggregate.tuples_seen(), 600u);

  FeedLocal(single, 600, 900);
  queued[1]();
  ExpectFoldMatchesReference(aggregate, {FoldUnitStates(single)});
  ExpectSameAnswers(aggregate, single);
  EXPECT_EQ(aggregate.tuples_seen(), 900u);
  EXPECT_EQ(supervisor.folds_completed(), 2u);
}

// Fetch, then apply: edge A's unit 0 answers a patch and its unit 1
// fails, so A goes DEGRADED with the contribution of its last good pull
// — unit 0 must not have moved to the new epoch on its own.
TEST(ClusterFoldTest, PullFailingPartWayKeepsTheLastGoodContribution) {
  Edge edge_a;
  Edge edge_b;
  RegisterNipsFirst(edge_a.engine());
  RegisterNipsFirst(edge_b.engine());
  FeedLocal(edge_a.engine(), 0, 400);
  FeedLocal(edge_b.engine(), 400, 800);
  edge_a.Start();
  edge_b.Start();

  QueryEngine aggregate(TestSchema());
  RegisterNipsFirst(aggregate);
  AggregatorSupervisor supervisor(&aggregate,
                                  {edge_a.Config("a"), edge_b.Config("b")},
                                  TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  ASSERT_TRUE(supervisor.PollOnce(0).refolded);

  // A comes back on the same port with unit 0 moved on and unit 1's
  // representative gone: its patch arrives, its second pull NotFound.
  edge_a.Stop();
  const std::vector<std::string> a_before = FoldUnitStates(edge_a.engine());
  ASSERT_TRUE(edge_a.engine().Deregister(1).ok());
  FeedLocal(edge_a.engine(), 800, 900);
  edge_a.Start();
  PollStats dead = supervisor.PollOnce(1000);  // the old connection died
  EXPECT_EQ(dead.failed, 1);
  EXPECT_FALSE(dead.refolded);

  {
    auto client = edge_b.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(900, 1000)).ok());
  }
  PollStats partial = supervisor.PollOnce(2000);
  EXPECT_EQ(partial.failed, 1);
  EXPECT_EQ(partial.succeeded, 1);
  EXPECT_TRUE(partial.refolded);  // B moved
  const PeerStatus status_a = supervisor.PeerStatuses()[0];
  EXPECT_EQ(status_a.health, PeerHealth::kDegraded);
  EXPECT_NE(status_a.last_error.find("deregistered"), std::string::npos)
      << status_a.last_error;

  ExpectFoldMatchesReference(aggregate,
                             {a_before, FullPulls(edge_b, aggregate)},
                             RegisterNipsFirst);
  EXPECT_EQ(aggregate.tuples_seen(), 400u + 500u);
}

// An aggregate is rebuilt from its Init() base plus its peers at every
// refold, so a write sent to it would last only until the next fold. It
// refuses OBSERVE_BATCH and MERGE instead and mutates nothing. The
// aggregate is served as `implistat_server --peer` serves it, with folds
// injected into the serving loop, and read only over the wire.
TEST(ClusterSupervisorTest, AggregateRefusesWritesAndKeepsItsFold) {
  Edge edge;
  RegisterSuite(edge.engine());
  FeedLocal(edge.engine(), 0, 600);
  edge.Start();

  QueryEngine aggregate(TestSchema());
  RegisterSuite(aggregate);
  std::unique_ptr<net::Server> server;
  AggregatorSupervisor supervisor(
      &aggregate, {edge.Config("edge")}, TestOptions(),
      [&server](std::function<void()> task) {
        server->InjectTask(std::move(task));
      });
  ASSERT_TRUE(supervisor.Init().ok());
  // Read before serving: from here on only the serving loop touches it.
  const std::vector<QueryEngine::FoldUnit> units = aggregate.FoldUnits();
  server = std::make_unique<net::Server>(&aggregate, net::ServerOptions());
  Status started = server->Start();
  ASSERT_TRUE(started.ok()) << started;
  std::thread loop([&server] { (void)server->Run(); });
  auto await_folds = [&supervisor](uint64_t count) {
    for (int i = 0; i < 500 && supervisor.folds_completed() < count; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return supervisor.folds_completed() >= count;
  };
  auto served_states = [&] {
    std::vector<std::string> states;
    auto client = net::Client::Connect("127.0.0.1", server->port());
    EXPECT_TRUE(client.ok());
    if (!client.ok()) return states;
    for (const QueryEngine::FoldUnit& unit : units) {
      auto full =
          client->Snapshot(static_cast<uint32_t>(unit.representative));
      EXPECT_TRUE(full.ok()) << full.status();
      states.push_back(full.ok() ? full->state : std::string());
    }
    return states;
  };

  ASSERT_TRUE(supervisor.PollOnce(0).refolded);
  ASSERT_TRUE(await_folds(1));
  const std::vector<std::string> before = served_states();
  {
    auto client = net::Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    auto observed = client->ObserveBatch(IdBatch(600, 900));
    EXPECT_EQ(observed.status().code(), StatusCode::kFailedPrecondition)
        << observed.status();
    auto edge_client = edge.Connect();
    ASSERT_TRUE(edge_client.ok());
    auto snapshot = edge_client->Snapshot(1);
    ASSERT_TRUE(snapshot.ok());
    Status merged = client->Merge(1, snapshot->state);
    EXPECT_EQ(merged.code(), StatusCode::kFailedPrecondition) << merged;
    EXPECT_NE(merged.message().find("send writes to an edge"),
              std::string::npos)
        << merged;
    auto answer = client->Query();
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->tuples_seen, 600u);
  }
  ExpectSameUnitStates(served_states(), before);

  // The next poll's fold is the edge's alone, as if no write was sent.
  {
    auto client = edge.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->ObserveBatch(IdBatch(900, 1000)).ok());
  }
  ASSERT_TRUE(supervisor.PollOnce(1000).refolded);
  ASSERT_TRUE(await_folds(2));
  QueryEngine reference(TestSchema());
  RegisterSuite(reference);
  const std::vector<std::string> edge_states = FullPulls(edge, reference);
  const std::vector<QueryEngine::FoldUnit> reference_units =
      reference.FoldUnits();
  ASSERT_EQ(edge_states.size(), reference_units.size());
  for (size_t u = 0; u < reference_units.size(); ++u) {
    ASSERT_TRUE(reference
                    .RefoldSynopsisState(reference_units[u].synopsis,
                                         {std::string_view(edge_states[u])})
                    .ok());
  }
  ExpectSameUnitStates(served_states(), FoldUnitStates(reference));
  {
    auto client = net::Client::Connect("127.0.0.1", server->port());
    ASSERT_TRUE(client.ok());
    auto answer = client->Query();
    ASSERT_TRUE(answer.ok());
    EXPECT_EQ(answer->tuples_seen, 700u);
  }

  server->Shutdown();
  loop.join();
}

}  // namespace
}  // namespace implistat::cluster
