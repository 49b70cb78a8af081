// Tracing-overhead benchmark: what does the flight recorder cost on the
// serving hot path? Three sampling configurations are measured — 0
// (runtime-disabled), 64 (the production default, 1 request in 64), and
// 1 (trace everything) — first as raw per-span cost in a tight loop,
// then end to end through a real Server on a TCP loopback (batched
// ingest throughput and QUERY round-trip latency).
//
// The serving rounds first warm the engine with one untimed pass (early
// passes are slower while the dictionary and fringe cells grow), then
// interleave the three rates with a rotated order each repetition so
// residual drift hits every rate equally; each rate keeps its best
// throughput and lowest p50.
//
// Claims this bench backs (results/BENCH_trace.json):
//   * default sampling (1-in-64) costs <= 2% serving throughput;
//   * a build with -DIMPLISTAT_METRICS=OFF pays nothing at any rate
//     (run the same binary from the nometrics build tree: every rate
//     measures identically because ScopedSpan is an empty object).
//
// Scale knobs: IMPLISTAT_FULL=1 (1M tuples per serving round; default
// 100k). An optional argv[1] names a JSON output file.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
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

double Percentile(std::vector<double>& xs, double p) {
  std::sort(xs.begin(), xs.end());
  const size_t at = static_cast<size_t>(p * static_cast<double>(xs.size()));
  return xs[std::min(at, xs.size() - 1)];
}

// Nanoseconds per ScopedSpan open/close in a tight loop at `rate`.
double SpanNanosPerOp(uint32_t rate, uint64_t iters) {
  obs::Tracer::SetSampleEveryN(rate);
  uint64_t sink = 0;
  const double start_us = NowUs();
  for (uint64_t i = 0; i < iters; ++i) {
    obs::ScopedSpan span("bench.micro", "bench");
    sink += span.sampled() ? 1 : 0;
  }
  const double elapsed_us = NowUs() - start_us;
  // Keep the loop body observable to the optimizer.
  if (sink > iters) std::fprintf(stderr, "impossible sink\n");
  return elapsed_us * 1000.0 / static_cast<double>(iters);
}

struct ServingRound {
  uint32_t sample_every_n = 0;
  double observe_mtps = 0;   // best across reps
  double query_p50_us = 0;   // lowest across reps
};

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const uint64_t n_per_round = bench::EnvFull() ? 1000000 : 100000;
  constexpr size_t kBatchSize = 256;
  constexpr int kQueryProbes = 200;
  constexpr int kReps = 6;  // multiple of 3: every rate sees every
                            // position in the rotated order equally
  const std::vector<uint32_t> rates = {0, 64, 1};

  bench::PrintHeaderBanner(
      "Tracing overhead (per-span cost, loopback serving at 3 sample rates)",
      "rates interleaved across reps; rate 0 is the baseline, 64 is the "
      "production default, 1 traces every request");
  std::printf("trace_enabled=%s, n=%llu tuples/round, batch=%zu, reps=%d\n\n",
              obs::kTraceEnabled ? "true" : "false",
              static_cast<unsigned long long>(n_per_round), kBatchSize, kReps);

  // --- Micro: raw span cost. ---
  const uint64_t micro_iters = bench::EnvFull() ? 20000000 : 2000000;
  double span_ns[3] = {0, 0, 0};
  for (size_t r = 0; r < rates.size(); ++r) {
    span_ns[r] = SpanNanosPerOp(rates[r], micro_iters);
  }
  std::printf("%-24s %12s %12s %12s\n", "per-span cost (ns)", "rate=0",
              "rate=64", "rate=1");
  std::printf("%-24s %12.1f %12.1f %12.1f\n\n", "", span_ns[0], span_ns[1],
              span_ns[2]);

  // --- Macro: loopback serving. ---
  QueryEngine engine(BenchSchema());
  if (!engine.Register(BenchSpec()).ok()) {
    std::fprintf(stderr, "register failed\n");
    return 1;
  }
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

  std::vector<ServingRound> rounds;
  for (uint32_t rate : rates) {
    rounds.push_back({rate, 0.0, 1e18});
  }
  Rng workload_rng(99);
  uint64_t shipped_total = 0;
  bool io_failed = false;

  // One timed ingest pass of n_per_round tuples; returns Mtuples/sec.
  auto IngestOnce = [&]() {
    net::ObserveBatchRequest batch;
    batch.encoding = net::ObserveEncoding::kIds;
    batch.width = 2;
    batch.ids.reserve(kBatchSize * 2);
    const double start_us = NowUs();
    for (uint64_t i = 0; i < n_per_round; ++i) {
      const ValueId a = static_cast<ValueId>(workload_rng.Uniform(200000));
      const ValueId b = static_cast<ValueId>(
          (a % 2) == 0 ? 7 : workload_rng.Uniform(1000));
      batch.ids.push_back(a);
      batch.ids.push_back(b);
      if (batch.num_tuples() >= kBatchSize || i + 1 == n_per_round) {
        auto seen = client->ObserveBatch(batch);
        if (!seen.ok()) {
          std::fprintf(stderr, "observe failed: %s\n",
                       std::string(seen.status().message()).c_str());
          io_failed = true;
          return 0.0;
        }
        batch.ids.clear();
      }
    }
    shipped_total += n_per_round;
    return static_cast<double>(n_per_round) / (NowUs() - start_us);
  };
  auto QueryP50 = [&]() {
    std::vector<double> rtt_us;
    rtt_us.reserve(kQueryProbes);
    for (int probe = 0; probe < kQueryProbes; ++probe) {
      const double q0 = NowUs();
      auto response = client->Query({0});
      if (!response.ok() || response->results.size() != 1) {
        std::fprintf(stderr, "query failed\n");
        io_failed = true;
        return 0.0;
      }
      rtt_us.push_back(NowUs() - q0);
    }
    return Percentile(rtt_us, 0.50);
  };

  // Untimed warm-up: the first passes run slower while the dictionary
  // and fringe cells grow; measure steady-state serving only.
  obs::Tracer::SetSampleEveryN(0);
  (void)IngestOnce();
  if (io_failed) return 1;

  for (int rep = 0; rep < kReps; ++rep) {
    for (size_t j = 0; j < rates.size(); ++j) {
      const size_t r = (static_cast<size_t>(rep) + j) % rates.size();
      obs::Tracer::SetSampleEveryN(rates[r]);
      const double mtps = IngestOnce();
      const double p50 = QueryP50();
      if (io_failed) return 1;
      rounds[r].observe_mtps = std::max(rounds[r].observe_mtps, mtps);
      rounds[r].query_p50_us = std::min(rounds[r].query_p50_us, p50);
    }
  }
  obs::Tracer::SetSampleEveryN(64);  // restore the default

  server.Shutdown();
  loop.join();
  if (engine.tuples_seen() != shipped_total) {
    std::fprintf(stderr, "VERIFY FAILED: server saw %llu of %llu tuples\n",
                 static_cast<unsigned long long>(engine.tuples_seen()),
                 static_cast<unsigned long long>(shipped_total));
    return 1;
  }

  // Overhead relative to the rate-0 (runtime-disabled) baseline; negative
  // values are measurement noise in the baseline's favor.
  auto overhead_pct = [&](const ServingRound& r) {
    return 100.0 * (rounds[0].observe_mtps - r.observe_mtps) /
           rounds[0].observe_mtps;
  };
  std::printf("%-14s %14s %16s %14s\n", "sample_rate", "observe_Mtps",
              "overhead_pct", "query_p50_us");
  for (const ServingRound& r : rounds) {
    std::printf("%-14u %14.3f %16.2f %14.1f\n", r.sample_every_n,
                r.observe_mtps, overhead_pct(r), r.query_p50_us);
  }

  // The measured table bounds tracing inside this host's scheduler noise
  // (run the IMPLISTAT_METRICS=OFF build: identical code at every rate
  // still spreads several percent). The tight bound is arithmetic: spans
  // per request times measured span cost, over the request service time.
  constexpr double kSpansPerRequest = 6;  // client.roundtrip + 5 server
  const double request_us =
      static_cast<double>(kBatchSize) / rounds[0].observe_mtps;
  const double derived_pct_64 =
      100.0 * (kSpansPerRequest * span_ns[1] / 1000.0) / request_us;
  std::printf(
      "\nderived bound at rate 64: %.0f spans/request x %.1f ns over a "
      "%.1f us request = %.3f%% of serving time\n",
      kSpansPerRequest, span_ns[1], request_us, derived_pct_64);
  std::printf("all %llu shipped tuples accounted for by the server\n",
              static_cast<unsigned long long>(shipped_total));

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    bench::WriteResultsHeader(json, "trace_overhead", kReps);
    json << "  \"trace_enabled\": "
         << (obs::kTraceEnabled ? "true" : "false") << ",\n"
         << "  \"n_tuples_per_round\": " << n_per_round << ",\n"
         << "  \"batch_size\": " << kBatchSize << ",\n"
         << "  \"note\": \"one untimed warm-up pass, then rates in "
         << "rotated order across trials, best-of per rate; overhead_pct "
         << "is observe throughput lost vs the rate-0 baseline and is "
         << "bounded by this host's scheduler noise (the METRICS=OFF "
         << "build spreads the same few percent across identical code). "
         << "derived_overhead_pct_at_64 is the arithmetic bound: "
         << "spans/request x measured span cost / request service "
         << "time. With IMPLISTAT_METRICS=OFF span cost is exactly 0: "
         << "spans compile out.\",\n"
         << "  \"derived_overhead_pct_at_64\": " << derived_pct_64 << ",\n"
         << "  \"span_cost_ns\": {\"rate0\": " << span_ns[0]
         << ", \"rate64\": " << span_ns[1] << ", \"rate1\": " << span_ns[2]
         << "},\n"
         << "  \"serving\": [\n";
    for (size_t i = 0; i < rounds.size(); ++i) {
      const ServingRound& r = rounds[i];
      json << "    {\"sample_every_n\": " << r.sample_every_n
           << ", \"observe_mtps\": " << r.observe_mtps
           << ", \"overhead_pct\": " << overhead_pct(r)
           << ", \"query_p50_us\": " << r.query_p50_us << "}"
           << (i + 1 < rounds.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "[implistat] trace overhead -> %s\n", argv[1]);
  }
  bench::MaybeWriteMetricsJson();
  return 0;
}
