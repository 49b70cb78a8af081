// Cluster aggregation benchmark: what a snapshot-shipping fleet costs.
//
// For each (edge count, ship interval) combination, real edge servers on
// loopback are pre-fed partitioned workloads and an AggregatorSupervisor
// folds them. Measured per combination:
//   * cold_fold_ms    — first supervision round: pull every edge's
//                       snapshot and refold from scratch
//   * refold_ms       — steady-state round after one edge ingests new
//                       rows (pull changed snapshot + full refold)
//   * staleness_ms    — expected lag between an edge observing a tuple
//                       and the aggregate reflecting it: ship_interval/2
//                       (mean wait for the next scheduled pull) plus the
//                       measured refold time
// Self-verifying: after every fold the aggregate's answer must equal an
// in-process twin fed the union stream, bit for bit.
//
// Scale knobs: IMPLISTAT_FULL=1 (4x the per-edge tuples). An optional
// argv[1] names a JSON output file (results/BENCH_cluster.json is the
// checked-in copy).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "cluster/supervisor.h"
#include "net/client.h"
#include "net/server.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat {
namespace {

Schema BenchSchema() {
  return Schema({{"Source", 97}, {"Destination", 47}, {"Hour", 24}});
}

// Conditions under which the NIPS bitmap fold is bit-identical to the
// single-process run (state merges by OR) — required for the bench's
// exact self-verification; looser conditions make the merge approximate.
ImplicationQuerySpec BenchSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.label = "bench";
  return spec;
}

double NowMsF() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Deterministic loyal/violator row i, shared by edges and the twin.
std::vector<ValueId> WorkloadRow(uint64_t i) {
  return {static_cast<ValueId>(i % 97),
          static_cast<ValueId>((i % 7 == 0) ? i % 47 : (i % 97) % 13),
          static_cast<ValueId>(i % 24)};
}

struct EdgeProc {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<net::Server> server;
  std::thread thread;
};

struct Row {
  int num_edges = 0;
  int64_t ship_interval_ms = 0;
  uint64_t tuples_per_edge = 0;
  double cold_fold_ms = 0;
  double refold_ms = 0;
  double staleness_ms = 0;
};

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const uint64_t per_edge = bench::EnvFull() ? 200000 : 50000;
  const std::vector<int> edge_counts = {2, 4, 8};
  const std::vector<int64_t> ship_intervals_ms = {100, 1000};
  constexpr int kSteadyRounds = 5;
  constexpr uint64_t kDeltaTuples = 1000;

  bench::PrintHeaderBanner(
      "Cluster convergence (snapshot pull + replace-then-refold cost)",
      "real edge servers on loopback; aggregate verified bit-identical "
      "to an in-process twin after every fold");
  std::printf("tuples per edge=%llu, steady rounds=%d, delta=%llu tuples\n\n",
              static_cast<unsigned long long>(per_edge), kSteadyRounds,
              static_cast<unsigned long long>(kDeltaTuples));

  std::vector<Row> rows;
  for (int num_edges : edge_counts) {
    // One shared tuple tape so the twin sees the exact union stream.
    uint64_t tape = 0;
    QueryEngine twin(BenchSchema());
    if (!twin.Register(BenchSpec()).ok()) return 1;

    std::vector<EdgeProc> edges(static_cast<size_t>(num_edges));
    std::vector<cluster::PeerConfig> peers;
    for (int e = 0; e < num_edges; ++e) {
      EdgeProc& edge = edges[static_cast<size_t>(e)];
      edge.engine = std::make_unique<QueryEngine>(BenchSchema());
      if (!edge.engine->Register(BenchSpec()).ok()) return 1;
      for (uint64_t i = 0; i < per_edge; ++i) {
        std::vector<ValueId> row = WorkloadRow(tape++);
        edge.engine->ObserveTuple(TupleRef(row.data(), row.size()));
        twin.ObserveTuple(TupleRef(row.data(), row.size()));
      }
      edge.server =
          std::make_unique<net::Server>(edge.engine.get(), net::ServerOptions{});
      if (!edge.server->Start().ok()) return 1;
      edge.thread = std::thread([&edge] { (void)edge.server->Run(); });
      peers.push_back(
          {"127.0.0.1", edge.server->port(), "edge-" + std::to_string(e)});
    }

    for (int64_t interval : ship_intervals_ms) {
      QueryEngine aggregate(BenchSchema());
      if (!aggregate.Register(BenchSpec()).ok()) return 1;
      cluster::SupervisorOptions options;
      options.poll_interval_ms = interval;
      cluster::AggregatorSupervisor supervisor(&aggregate, peers, options);
      if (!supervisor.Init().ok()) return 1;

      Row row;
      row.num_edges = num_edges;
      row.ship_interval_ms = interval;
      row.tuples_per_edge = per_edge;

      const double cold_start = NowMsF();
      cluster::PollStats cold = supervisor.PollOnce(0);
      row.cold_fold_ms = NowMsF() - cold_start;
      if (cold.succeeded != num_edges || !cold.refolded) {
        std::fprintf(stderr, "cold fold failed\n");
        return 1;
      }
      if (*aggregate.Answer(0) != *twin.Answer(0)) {
        std::fprintf(stderr, "VERIFY FAILED after cold fold\n");
        return 1;
      }

      // Steady state: one edge ingests a delta, the next round pulls and
      // refolds. The twin tracks the same delta for verification.
      double refold_total = 0;
      auto client = net::Client::Connect("127.0.0.1", edges[0].server->port());
      if (!client.ok()) return 1;
      for (int round = 1; round <= kSteadyRounds; ++round) {
        net::ObserveBatchRequest batch;
        batch.encoding = net::ObserveEncoding::kIds;
        batch.width = 3;
        for (uint64_t i = 0; i < kDeltaTuples; ++i) {
          std::vector<ValueId> tuple = WorkloadRow(tape++);
          batch.ids.insert(batch.ids.end(), tuple.begin(), tuple.end());
          twin.ObserveTuple(TupleRef(tuple.data(), tuple.size()));
        }
        if (!client->ObserveBatch(batch).ok()) return 1;

        const double start = NowMsF();
        cluster::PollStats stats =
            supervisor.PollOnce(round * (interval + 1));
        refold_total += NowMsF() - start;
        if (!stats.refolded) {
          std::fprintf(stderr, "steady round did not refold\n");
          return 1;
        }
        if (*aggregate.Answer(0) != *twin.Answer(0)) {
          std::fprintf(stderr, "VERIFY FAILED at round %d\n", round);
          return 1;
        }
      }
      row.refold_ms = refold_total / kSteadyRounds;
      row.staleness_ms = static_cast<double>(interval) / 2 + row.refold_ms;
      rows.push_back(row);

      // The edges keep their delta rows and the twin saw the same tape,
      // so the next interval's fresh aggregate still verifies against it.
    }

    for (EdgeProc& edge : edges) {
      edge.server->Shutdown();
      edge.thread.join();
    }
  }

  std::printf("%-10s %18s %14s %12s %14s\n", "num_edges", "ship_interval_ms",
              "cold_fold_ms", "refold_ms", "staleness_ms");
  for (const Row& r : rows) {
    std::printf("%-10d %18lld %14.2f %12.2f %14.2f\n", r.num_edges,
                static_cast<long long>(r.ship_interval_ms), r.cold_fold_ms,
                r.refold_ms, r.staleness_ms);
  }
  std::printf("\nall folds verified against the in-process twin\n");

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    bench::WriteResultsHeader(json, "cluster_convergence", kSteadyRounds);
    json << "  \"workload\": \"deterministic loyal/violator tape, NIPS/CI "
         << "estimator, partitioned across edge servers on TCP loopback\",\n"
         << "  \"tuples_per_edge\": " << per_edge << ",\n"
         << "  \"note\": \"staleness_ms = ship_interval/2 + measured "
         << "pull+refold time; every fold verified bit-identical to a "
         << "single-process twin over the union stream\",\n"
         << "  \"rounds\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json << "    {\"num_edges\": " << r.num_edges
           << ", \"ship_interval_ms\": " << r.ship_interval_ms
           << ", \"cold_fold_ms\": " << r.cold_fold_ms
           << ", \"refold_ms\": " << r.refold_ms
           << ", \"staleness_ms\": " << r.staleness_ms << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "[implistat] cluster convergence -> %s\n", argv[1]);
  }
  bench::MaybeWriteMetricsJson();
  return 0;
}
