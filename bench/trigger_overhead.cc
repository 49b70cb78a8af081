// Trigger overhead: ingest throughput with 0 / 16 / 256 armed triggers.
//
// The hot-path contract (DESIGN.md §12) is that TriggerEngine::Tick is a
// single compare against the earliest due epoch until a trigger is
// actually due, so armed-but-quiet triggers must be nearly free: the CI
// bench-regression job gates the 16-trigger ingest rate at >= 95% of the
// same run's 0-trigger rate. Rules here watch a live NIPS/CI estimate
// through MOVING_AVG but can never fire (the average is never negative),
// so the number isolates evaluation cost, not delivery.
//
// Scale knobs: IMPLISTAT_FULL=1 (20M tuples; default 2M),
// IMPLISTAT_TRIALS (median-of-N, default 3). An optional argv[1] names a
// JSON output file (results/BENCH_trigger.json is the checked-in copy).

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat {
namespace {

constexpr uint64_t kEvery = 16384;

Schema BenchSchema() {
  return Schema({{"Source", 65536}, {"Destination", 4096}});
}

ImplicationQuerySpec BenchSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.nips.seed = 7;
  // An explicit std::string: GCC 12 at -O3 misreports assigning the
  // literal as an overlapping memcpy (-Werror=restrict).
  spec.label = std::string("s");
  return spec;
}

std::vector<ValueId> MakeTuples(uint64_t n) {
  std::vector<ValueId> ids;
  ids.reserve(n * 2);
  Rng rng(424242);
  for (uint64_t i = 0; i < n; ++i) {
    ids.push_back(static_cast<ValueId>(rng.Uniform(65536)));
    ids.push_back(static_cast<ValueId>(rng.Uniform(4096)));
  }
  return ids;
}

struct Round {
  uint64_t triggers = 0;
  double mtps = 0.0;              // ingest, million tuples/sec
  double eval_ns_per_epoch = 0.0;  // extra wall time per boundary epoch
};

double TimedIngestSec(const std::vector<ValueId>& ids, uint64_t triggers) {
  QueryEngine engine(BenchSchema());
  if (!engine.Register(BenchSpec()).ok()) std::abort();
  for (uint64_t t = 0; t < triggers; ++t) {
    std::string rule = "CREATE TRIGGER t" + std::to_string(t) +
                       " ON s WHEN MOVING_AVG(s, 16) < -1 EVERY " +
                       std::to_string(kEvery) + " TUPLES";
    if (!engine.InstallTrigger(rule).ok()) std::abort();
  }
  const uint64_t n = ids.size() / 2;
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < n; ++i) {
    engine.ObserveTuple(TupleRef(ids.data() + i * 2, 2));
  }
  auto stop = std::chrono::steady_clock::now();
  if (engine.has_pending_trigger_firings()) std::abort();  // must stay quiet
  return std::chrono::duration<double>(stop - start).count();
}

double MedianIngestSec(const std::vector<ValueId>& ids, uint64_t triggers,
                       int trials) {
  std::vector<double> times;
  for (int t = 0; t < trials; ++t) times.push_back(TimedIngestSec(ids, triggers));
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const uint64_t n = bench::EnvFull() ? 20000000 : 2000000;
  const int trials = bench::EnvTrials();
  const std::vector<ValueId> ids = MakeTuples(n);
  const uint64_t epochs = n / kEvery;

  std::printf("trigger overhead: %llu tuples, median of %d\n",
              static_cast<unsigned long long>(n), trials);
  std::vector<Round> rounds;
  double baseline_sec = 0.0;
  for (uint64_t triggers : {0ull, 16ull, 256ull}) {
    double sec = MedianIngestSec(ids, triggers, trials);
    if (triggers == 0) baseline_sec = sec;
    Round round;
    round.triggers = triggers;
    round.mtps = static_cast<double>(n) / sec / 1e6;
    round.eval_ns_per_epoch =
        epochs == 0 ? 0.0
                    : std::max(0.0, sec - baseline_sec) * 1e9 /
                          static_cast<double>(epochs);
    rounds.push_back(round);
    std::printf("  %4llu triggers  %7.2f Mt/s  %8.0f ns/epoch extra\n",
                static_cast<unsigned long long>(triggers), round.mtps,
                round.eval_ns_per_epoch);
  }

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    json << "{\n"
         << "  \"bench\": \"trigger_overhead\",\n"
         << "  \"tuples\": " << n << ",\n"
         << "  \"every_tuples\": " << kEvery << ",\n"
         << "  \"trials\": " << trials << ",\n"
         << "  \"rounds\": [\n";
    for (size_t i = 0; i < rounds.size(); ++i) {
      const Round& r = rounds[i];
      json << "    {\"triggers\": " << r.triggers
           << ", \"observe_million_tuples_per_sec\": " << r.mtps
           << ", \"eval_ns_per_epoch\": " << r.eval_ns_per_epoch << "}"
           << (i + 1 < rounds.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}
