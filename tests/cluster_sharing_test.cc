// Aggregation over a shared synopsis store: the supervisor's fold is
// keyed by synopsis (QueryEngine::FoldUnits), so a synopsis shared by
// many queries is pulled and refolded exactly once per fleet poll —
// never once per query — and the fold still converges bit-identically
// to the single-process answer for every query bound to it.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/supervisor.h"
#include "net/client.h"
#include "net/server.h"
#include "query/engine.h"

namespace implistat::cluster {
namespace {

Schema TestSchema() {
  return Schema({{"Source", 97}, {"Destination", 47}, {"Hour", 24}});
}

ImplicationQuerySpec ExactSpec(std::string label) {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.estimator.kind = EstimatorKind::kExact;
  spec.label = std::move(label);
  return spec;
}

ImplicationQuerySpec NipsSpec(std::string label) {
  ImplicationQuerySpec spec = ExactSpec(std::move(label));
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.nips.num_bitmaps = 8;
  return spec;
}

// Four queries over two synopses: three key-identical exact tenants
// share one estimator, the NIPS query owns the other.
void RegisterTenants(QueryEngine& engine) {
  ASSERT_TRUE(engine.Register(ExactSpec("tenant-a")).ok());
  ASSERT_TRUE(engine.Register(ExactSpec("tenant-b")).ok());
  ASSERT_TRUE(engine.Register(ExactSpec("tenant-c")).ok());
  ASSERT_TRUE(engine.Register(NipsSpec("sketch")).ok());
  ASSERT_EQ(engine.num_queries(), 4);
  ASSERT_EQ(engine.num_synopses(), 2);
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> int {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return bytes;
}

// The four tenants of RegisterTenants in the dedicated layout (one
// synopsis per query), checkpointed at 0 tuples. Engines that could turn
// sharing off wrote this layout; a restored edge keeps serving it.
constexpr std::string_view kDedicatedTenantsCheckpoint =
    "494d5053020cd1156af3986f71816e51030000bd11494d5053020db111040101"
    "000101000100000001000000000000f03f010000000101000040040000000200"
    "00003a000000000000000000000000800f270000000000000000007b14ae47e1"
    "7a843f7b14ae47e17a843f7b14ae47e17a843f9a9999999999b93f0000000000"
    "0000001f494d50530202140100000001000000000000f03f0100000001000091"
    "bd95420101000101000100000001000000000000f03f01000000010100004004"
    "000000020000003a000000000000000000000000800f27000000000000000000"
    "7b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a9999999999b93f"
    "00000000000000001f494d50530202140100000001000000000000f03f010000"
    "0001000091bd95420101000101000100000001000000000000f03f0100000001"
    "0100004004000000020000003a000000000000000000000000800f2700000000"
    "00000000007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a9999"
    "999999b93f00000000000000001f494d50530202140100000001000000000000"
    "f03f0100000001000091bd95420101000101000100000001000000000000f03f"
    "01000000010000000804000000020000003a000000000000000000000000800f"
    "270000000000000000007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a"
    "843f9a9999999999b93f0000000000000000ba0d494d50530201ae0d01080000"
    "000000000000000000000100000001000000000000f03f010000000104000000"
    "020000003a000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000100"
    "000001000000000000f03f010000000104000000020000003a00000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000100000001000000000000f03f01"
    "0000000104000000020000003a00000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000100000001000000000000f03f01000000010400000002000000"
    "3a00000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000010000000100"
    "0000000000f03f010000000104000000020000003a0000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000000000000100000001000000000000f03f0100000001"
    "04000000020000003a0000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000100000001000000000000f03f010000000104000000020000003a000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000001000000010000000000"
    "00f03f010000000104000000020000003a000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00000000000000000000547bf09985f8aa96040106536f75726365010b446573"
    "74696e6174696f6e0100000001000000000000f03f0100000001000001000040"
    "04000000020000003a000000000000000000000000800f270000000000000000"
    "007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a9999999999b9"
    "3f00000000000000000874656e616e742d610100000106536f75726365010b44"
    "657374696e6174696f6e0100000001000000000000f03f010000000100000100"
    "004004000000020000003a000000000000000000000000800f27000000000000"
    "0000007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a99999999"
    "99b93f00000000000000000874656e616e742d620100010106536f7572636501"
    "0b44657374696e6174696f6e0100000001000000000000f03f01000000010000"
    "0100004004000000020000003a000000000000000000000000800f2700000000"
    "00000000007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a9999"
    "999999b93f00000000000000000874656e616e742d630100020106536f757263"
    "65010b44657374696e6174696f6e0100000001000000000000f03f0100000001"
    "00000000000804000000020000003a000000000000000000000000800f270000"
    "000000000000007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a"
    "9999999999b93f000000000000000006736b6574636801000375dd8eac";

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

class Edge {
 public:
  Edge() : engine_(TestSchema()) {}
  ~Edge() {
    if (thread_.joinable()) {
      server_->Shutdown();
      thread_.join();
    }
  }

  QueryEngine& engine() { return engine_; }

  void Start() {
    server_ = std::make_unique<net::Server>(&engine_, net::ServerOptions{});
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    thread_ = std::thread([this] { (void)server_->Run(); });
  }

  PeerConfig Config(const std::string& name) const {
    return PeerConfig{"127.0.0.1", server_->port(), name};
  }

 private:
  QueryEngine engine_;
  std::unique_ptr<net::Server> server_;
  std::thread thread_;
};

TEST(ClusterSharingTest, SharedSynopsisFoldsOncePerPoll) {
  Edge edges[2];
  for (int i = 0; i < 2; ++i) {
    RegisterTenants(edges[i].engine());
    FeedLocal(edges[i].engine(), static_cast<uint64_t>(i) * 600,
              static_cast<uint64_t>(i + 1) * 600);
    edges[i].Start();
  }

  QueryEngine aggregate(TestSchema());
  RegisterTenants(aggregate);
  // The fold plan is one unit per synopsis: 2 units for 4 queries. This
  // is the "folds exactly once" contract — the supervisor issues one
  // SNAPSHOT pull (and one refold) per unit per peer, so the shared
  // estimator can never be folded once per tenant.
  ASSERT_EQ(aggregate.FoldUnits().size(), 2u);

  AggregatorSupervisor supervisor(
      &aggregate, {edges[0].Config("a"), edges[1].Config("b")},
      TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  PollStats first = supervisor.PollOnce(0);
  EXPECT_EQ(first.succeeded, 2);
  EXPECT_TRUE(first.refolded);

  // Exact-estimator equality against the single-process run is the
  // double-count detector: folding the shared synopsis once per tenant
  // would have merged each edge's contribution three times.
  QueryEngine single(TestSchema());
  RegisterTenants(single);
  FeedLocal(single, 0, 1200);
  for (QueryId id = 0; id < 4; ++id) {
    EXPECT_EQ(aggregate.Answer(id).value(), single.Answer(id).value())
        << "query " << id;
  }
  EXPECT_EQ(aggregate.tuples_seen(), 1200u);

  // Idempotence holds at the synopsis level too: re-pulling unchanged
  // edges refolds nothing and changes nothing.
  PollStats second = supervisor.PollOnce(1000);
  EXPECT_EQ(second.succeeded, 2);
  EXPECT_FALSE(second.refolded);
  for (QueryId id = 0; id < 4; ++id) {
    EXPECT_EQ(aggregate.Answer(id).value(), single.Answer(id).value());
  }
}

TEST(ClusterSharingTest, MixedFleetSharingAndDedicatedEdgesConverge) {
  // The synopsis layout is per process and invisible on the wire: an
  // edge restored from a dedicated-layout checkpoint serves the same
  // SNAPSHOT bytes per query id, so a sharing aggregator folds it
  // without noticing.
  Edge sharing_edge;
  RegisterTenants(sharing_edge.engine());
  FeedLocal(sharing_edge.engine(), 0, 500);
  sharing_edge.Start();

  Edge dedicated_edge;
  ASSERT_TRUE(dedicated_edge.engine()
                  .RestoreState(FromHex(kDedicatedTenantsCheckpoint))
                  .ok());
  ASSERT_EQ(dedicated_edge.engine().num_queries(), 4);
  ASSERT_EQ(dedicated_edge.engine().num_synopses(), 4);  // 1:1 layout
  FeedLocal(dedicated_edge.engine(), 500, 1000);
  dedicated_edge.Start();

  QueryEngine aggregate(TestSchema());
  RegisterTenants(aggregate);
  AggregatorSupervisor supervisor(
      &aggregate,
      {sharing_edge.Config("shared"), dedicated_edge.Config("dedicated")},
      TestOptions());
  ASSERT_TRUE(supervisor.Init().ok());
  EXPECT_TRUE(supervisor.PollOnce(0).refolded);

  QueryEngine single(TestSchema());
  RegisterTenants(single);
  FeedLocal(single, 0, 1000);
  for (QueryId id = 0; id < 4; ++id) {
    EXPECT_EQ(aggregate.Answer(id).value(), single.Answer(id).value())
        << "query " << id;
  }
}

}  // namespace
}  // namespace implistat::cluster
