// Serving-layer loopback benchmark: served ingest against in-process
// ingest of the same tuples, per batch size, and query round-trip
// latency, against a real Server on a real socket.
//
// The whole process is pinned to the CPU it starts on, so the client,
// reactor and writer threads take turns on one CPU and the served rate
// pays for every stage of the serving path. For each batch size and
// trial, a fresh chunk of tuples is generated and encoded into
// OBSERVE_BATCH frames before any timing; then two arms ingest the
// chunk, in alternating order:
//   served:     the frames, pipelined up to kWindow in flight over TCP
//               loopback, until every ack is in;
//   in-process: ObserveStream of the same tuples into the twin engine.
// The twin has seen exactly what the server's engine has, so both arms
// do the same sketch work and their rate ratio prices the serving path
// alone: framing, CRC32C, socket, batch decode, writer handoff, acks and
// flushes. Host speed cancels out of the ratio; the CI bench-regression
// job gates its median over trials.
//
// Self-verifying: after every batch size the remote estimate must equal
// the twin's bit for bit, and the server must have seen every tuple.
//
// Scale knobs: IMPLISTAT_TRIALS (default 9), IMPLISTAT_FULL=1 (4M tuples
// per trial; default 1M). An optional argv[1] names a JSON output file
// (results/BENCH_net.json is the checked-in copy).

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/messages.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat {
namespace {

Schema BenchSchema() { return Schema({{"A", 200000}, {"B", 1000}}); }

ImplicationQuerySpec BenchSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"A"};
  spec.b_attributes = {"B"};
  spec.conditions.max_multiplicity = 2;
  spec.conditions.min_support = 5;
  spec.conditions.min_top_confidence = 0.8;
  spec.conditions.confidence_c = 1;
  spec.conditions.strict_multiplicity = false;
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.label = "bench";
  return spec;
}

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Frames in flight on the served arm; under the server's
// max_pipeline_depth and the client's max_in_flight.
constexpr size_t kWindow = 32;

struct Row {
  size_t batch_size = 0;
  uint64_t tuples_per_trial = 0;
  double served_mtps = 0;     // median over trials
  double inprocess_mtps = 0;  // median over trials
  double ratio_median = 0;    // median of served / in-process per trial
  double ratio_min = 0;
  double ratio_max = 0;
  double query_p50_us = 0;
  double query_p99_us = 0;
};

double Percentile(std::vector<double>& xs, double p) {
  std::sort(xs.begin(), xs.end());
  const size_t at = static_cast<size_t>(p * static_cast<double>(xs.size()));
  return xs[std::min(at, xs.size() - 1)];
}

// One trial's chunk of the loyal/violator workload: flat (a, b) ids.
std::vector<ValueId> MakeChunk(Rng& rng, uint64_t tuples) {
  std::vector<ValueId> flat;
  flat.reserve(2 * tuples);
  for (uint64_t i = 0; i < tuples; ++i) {
    const ValueId a = static_cast<ValueId>(rng.Uniform(200000));
    const bool loyal = (a % 2) == 0;
    flat.push_back(a);
    flat.push_back(static_cast<ValueId>(loyal ? 7 : rng.Uniform(1000)));
  }
  return flat;
}

std::vector<std::string> EncodeFrames(const std::vector<ValueId>& flat,
                                      size_t batch_size) {
  std::vector<std::string> frames;
  const size_t cells = 2 * batch_size;
  for (size_t at = 0; at < flat.size(); at += cells) {
    net::ObserveBatchRequest batch;
    batch.encoding = net::ObserveEncoding::kIds;
    batch.width = 2;
    batch.ids.assign(flat.begin() + static_cast<std::ptrdiff_t>(at),
                     flat.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(flat.size(), at + cells)));
    frames.push_back(net::EncodeRequestFrame(
        net::MsgType::kObserveBatch, net::EncodeObserveBatchRequest(batch)));
  }
  return frames;
}

// Pipelines every frame and waits for every ack; seconds, or -1 on error.
double ServeFrames(net::Client& client,
                   const std::vector<std::string>& frames) {
  const double start = NowUs();
  for (const std::string& frame : frames) {
    if (client.in_flight() == kWindow && !client.Await().ok()) return -1;
    if (!client.Submit(net::MsgType::kObserveBatch, frame, true).ok()) {
      return -1;
    }
  }
  while (client.in_flight() > 0) {
    if (!client.Await().ok()) return -1;
  }
  return (NowUs() - start) / 1e6;
}

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const uint64_t n_per_trial = bench::EnvFull() ? 4000000 : 1000000;
  const int trials = bench::EnvTrials(9);
  const std::vector<size_t> batch_sizes = {16, 256, 4096};
  constexpr int kQueryProbes = 200;

  // Pin before any thread starts: the server's threads inherit it.
  const int cpu = sched_getcpu();
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpu, &pinned);
  if (cpu < 0 || sched_setaffinity(0, sizeof(pinned), &pinned) != 0) {
    std::fprintf(stderr, "cannot pin to one CPU\n");
    return 1;
  }

  bench::PrintHeaderBanner(
      "Serving-layer loopback ingest (served vs in-process) and query RTT",
      "loyal/violator workload over TCP loopback on one pinned CPU; "
      "remote estimate verified against the in-process twin");
  std::printf("n=%llu tuples per trial, trials=%d, window=%zu frames, "
              "query probes=%d\n\n",
              static_cast<unsigned long long>(n_per_trial), trials, kWindow,
              kQueryProbes);

  QueryEngine engine(BenchSchema());
  if (!engine.Register(BenchSpec()).ok()) {
    std::fprintf(stderr, "register failed\n");
    return 1;
  }
  QueryEngine twin(BenchSchema());
  (void)twin.Register(BenchSpec());

  net::ServerOptions options;
  net::Server server(&engine, options);
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 std::string(started.message()).c_str());
    return 1;
  }
  std::thread loop([&server] { (void)server.Run(); });

  auto client = net::Client::Connect("127.0.0.1", server.port());
  if (!client.ok()) {
    std::fprintf(stderr, "connect failed\n");
    return 1;
  }

  Rng workload_rng(99);
  std::vector<Row> rows;
  uint64_t shipped_total = 0;
  for (size_t batch_size : batch_sizes) {
    Row row;
    row.batch_size = batch_size;
    row.tuples_per_trial = n_per_trial;
    std::vector<double> served, inprocess, ratios;
    for (int t = 0; t < trials; ++t) {
      std::vector<ValueId> flat = MakeChunk(workload_rng, n_per_trial);
      const std::vector<std::string> frames = EncodeFrames(flat, batch_size);
      VectorStream stream(BenchSchema(), std::move(flat));
      double served_s = 0;
      double inprocess_s = 0;
      auto serve = [&] { served_s = ServeFrames(*client, frames); };
      auto observe = [&] {
        const double start = NowUs();
        if (!twin.ObserveStream(stream).ok()) std::exit(1);
        inprocess_s = (NowUs() - start) / 1e6;
      };
      if (t % 2 == 0) {
        serve();
        observe();
      } else {
        observe();
        serve();
      }
      if (served_s < 0) {
        std::fprintf(stderr, "served ingest failed at batch=%zu\n",
                     batch_size);
        return 1;
      }
      shipped_total += n_per_trial;
      const double n = static_cast<double>(n_per_trial);
      served.push_back(n / served_s / 1e6);
      inprocess.push_back(n / inprocess_s / 1e6);
      ratios.push_back(inprocess_s / served_s);
    }
    row.served_mtps = bench::Median(served);
    row.inprocess_mtps = bench::Median(inprocess);
    row.ratio_median = bench::Median(ratios);
    row.ratio_min = *std::min_element(ratios.begin(), ratios.end());
    row.ratio_max = *std::max_element(ratios.begin(), ratios.end());

    // Query RTT against the grown state.
    std::vector<double> rtt_us;
    rtt_us.reserve(kQueryProbes);
    double remote_estimate = 0;
    for (int probe = 0; probe < kQueryProbes; ++probe) {
      const double q0 = NowUs();
      auto response = client->Query({0});
      if (!response.ok() || response->results.size() != 1) {
        std::fprintf(stderr, "query failed\n");
        return 1;
      }
      rtt_us.push_back(NowUs() - q0);
      remote_estimate = response->results[0].estimate;
    }
    row.query_p50_us = Percentile(rtt_us, 0.50);
    row.query_p99_us = Percentile(rtt_us, 0.99);

    // Self-verification: the socket path must answer exactly like the
    // in-process twin that saw the same tuples.
    const double expected = *twin.Answer(0);
    if (remote_estimate != expected) {
      std::fprintf(stderr,
                   "VERIFY FAILED at batch=%zu: remote %.17g != twin %.17g\n",
                   batch_size, remote_estimate, expected);
      return 1;
    }
    rows.push_back(row);
  }

  server.Shutdown();
  loop.join();
  if (engine.tuples_seen() != shipped_total) {
    std::fprintf(stderr, "VERIFY FAILED: server saw %llu of %llu tuples\n",
                 static_cast<unsigned long long>(engine.tuples_seen()),
                 static_cast<unsigned long long>(shipped_total));
    return 1;
  }

  std::printf("%-10s %12s %14s %12s %20s %13s %13s\n", "batch_size",
              "served_Mtps", "inprocess_Mtps", "ratio_med", "ratio_range",
              "query_p50_us", "query_p99_us");
  for (const Row& r : rows) {
    std::printf("%-10zu %12.3f %14.3f %12.3f %9.3f-%-10.3f %13.1f %13.1f\n",
                r.batch_size, r.served_mtps, r.inprocess_mtps, r.ratio_median,
                r.ratio_min, r.ratio_max, r.query_p50_us, r.query_p99_us);
  }
  std::printf("\nall rounds verified against the in-process twin\n");

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    bench::WriteResultsHeader(json, "net_throughput", trials);
    json << "  \"workload\": \"loyal/violator, 200k distinct itemsets, "
         << "TCP loopback\",\n"
         << "  \"pinned_cpus\": 1,\n"
         << "  \"n_tuples_per_trial\": " << n_per_trial << ",\n"
         << "  \"window_frames\": " << kWindow << ",\n"
         << "  \"query_probes\": " << kQueryProbes << ",\n"
         << "  \"note\": \"all threads pinned to one CPU; per trial, "
         << "served ingest of pre-encoded frames and in-process "
         << "ObserveStream of the same tuples into the twin engine, in "
         << "alternating order; rates and paired_ratio (in-process time / "
         << "served time) are medians over trials; every batch size's "
         << "remote estimate verified bit-identical to the twin\",\n"
         << "  \"rounds\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json << "    {\"batch_size\": " << r.batch_size
           << ", \"observe_million_tuples_per_sec\": " << r.served_mtps
           << ", \"inprocess_million_tuples_per_sec\": " << r.inprocess_mtps
           << ", \"paired_ratio_median\": " << r.ratio_median
           << ", \"paired_ratio_min\": " << r.ratio_min
           << ", \"paired_ratio_max\": " << r.ratio_max
           << ", \"query_p50_us\": " << r.query_p50_us
           << ", \"query_p99_us\": " << r.query_p99_us << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "[implistat] net throughput -> %s\n", argv[1]);
  }
  bench::MaybeWriteMetricsJson();
  return 0;
}
