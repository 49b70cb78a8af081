// Trigger overhead: ingest cost of 0 / 16 / 256 armed triggers.
//
// The hot-path contract (DESIGN.md §12) is that TriggerEngine::Tick is a
// single compare against the earliest due epoch until a trigger is
// actually due, so armed-but-quiet triggers must be nearly free: the CI
// bench-regression job gates the median paired ratio of the 16-trigger
// ingest rate to the 0-trigger rate at >= 0.95. Rules here watch a live
// NIPS/CI estimate through MOVING_AVG but can never fire (the average is
// never negative), so the number isolates evaluation cost, not delivery.
//
// Measurement: each trial builds one engine per arm (0, 16, 256, then 0
// triggers again), and the arms ingest the same tuples interleaved, one
// epoch at a time in rotating order. Each turn is timed on the calling
// thread's CPU clock (CLOCK_THREAD_CPUTIME_ID), so time the host hands
// to other processes is not counted, and a burst of host noise lands on
// every arm alike. A trial's ratio for k triggers is the k-trigger rate
// over the rate at the mean time of its two 0-trigger arms; the bench
// reports the median ratio over trials.
//
// Scale knobs: IMPLISTAT_FULL=1 (20M tuples; default 2M),
// IMPLISTAT_TRIALS (default 11). An optional argv[1] names a JSON output
// file (results/BENCH_trigger.json is the checked-in copy).

#include <time.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
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
  double mtps = 0.0;               // median ingest, million tuples/sec
  double ratio = 0.0;              // median paired rate ratio vs 0 triggers
  double eval_ns_per_epoch = 0.0;  // median extra CPU time per epoch
};

double ThreadCpuSec() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

std::unique_ptr<QueryEngine> ArmedEngine(uint64_t triggers) {
  auto engine = std::make_unique<QueryEngine>(BenchSchema());
  if (!engine->Register(BenchSpec()).ok()) std::abort();
  for (uint64_t t = 0; t < triggers; ++t) {
    std::string rule = "CREATE TRIGGER t" + std::to_string(t) +
                       " ON s WHEN MOVING_AVG(s, 16) < -1 EVERY " +
                       std::to_string(kEvery) + " TUPLES";
    if (!engine->InstallTrigger(rule).ok()) std::abort();
  }
  return engine;
}

// One trial: an engine per arm ingests the same tuples, the arms taking
// turns one epoch (kEvery tuples) at a time in rotating order. Returns
// each arm's summed ingest time.
std::vector<double> TrialSec(const std::vector<ValueId>& ids,
                             const std::vector<uint64_t>& arms) {
  std::vector<std::unique_ptr<QueryEngine>> engines;
  for (uint64_t triggers : arms) engines.push_back(ArmedEngine(triggers));
  std::vector<double> sec(arms.size(), 0.0);
  const uint64_t n = ids.size() / 2;
  for (uint64_t begin = 0, turn = 0; begin < n; begin += kEvery, ++turn) {
    const uint64_t end = std::min(n, begin + kEvery);
    for (size_t k = 0; k < engines.size(); ++k) {
      const size_t a = (k + turn) % engines.size();
      const double start = ThreadCpuSec();
      for (uint64_t i = begin; i < end; ++i) {
        engines[a]->ObserveTuple(TupleRef(ids.data() + i * 2, 2));
      }
      sec[a] += ThreadCpuSec() - start;
    }
  }
  for (const auto& engine : engines) {
    // The rules can never fire: any firing means the bench is broken.
    if (engine->has_pending_trigger_firings()) std::abort();
  }
  return sec;
}

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const uint64_t n = bench::EnvFull() ? 20000000 : 2000000;
  const int trials = bench::EnvTrials(11);
  const std::vector<ValueId> ids = MakeTuples(n);
  const double epochs = static_cast<double>(n / kEvery);
  const std::vector<uint64_t> arms = {0, 16, 256};

  std::printf("trigger overhead: %llu tuples, %d interleaved trials, "
              "thread CPU time\n",
              static_cast<unsigned long long>(n), trials);
  std::vector<std::vector<double>> sec(arms.size());  // [arm][trial]
  for (int t = 0; t < trials; ++t) {
    // The 0-trigger arm runs first and last; it counts as their mean.
    std::vector<double> trial = TrialSec(ids, {0, 16, 256, 0});
    trial[0] = (trial[0] + trial[3]) / 2;
    for (size_t a = 0; a < arms.size(); ++a) sec[a].push_back(trial[a]);
  }

  std::vector<Round> rounds;
  for (size_t a = 0; a < arms.size(); ++a) {
    std::vector<double> ratios, extra_ns;
    for (int t = 0; t < trials; ++t) {
      ratios.push_back(sec[0][t] / sec[a][t]);
      extra_ns.push_back((sec[a][t] - sec[0][t]) * 1e9 / epochs);
    }
    rounds.push_back(
        Round{arms[a], static_cast<double>(n) / bench::Median(sec[a]) / 1e6,
              bench::Median(ratios),
              std::max(0.0, bench::Median(extra_ns))});
  }
  for (const Round& r : rounds) {
    std::printf("  %4llu triggers  %7.2f Mt/s  ratio %.3f  %8.0f ns/epoch "
                "extra\n",
                static_cast<unsigned long long>(r.triggers), r.mtps, r.ratio,
                r.eval_ns_per_epoch);
  }

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    bench::WriteResultsHeader(json, "trigger_overhead", trials);
    json << "  \"clock\": \"thread_cpu\",\n"
         << "  \"tuples\": " << n << ",\n"
         << "  \"every_tuples\": " << kEvery << ",\n"
         << "  \"note\": \"per trial, one engine per arm (0, 16, 256, 0 "
         << "triggers) ingesting the same tuples one epoch at a time in "
         << "rotating order, timed on the thread CPU clock; "
         << "paired_ratio_median = median over trials of the armed rate "
         << "over the rate at the mean of the trial's two 0-trigger "
         << "times\",\n"
         << "  \"rounds\": [\n";
    for (size_t i = 0; i < rounds.size(); ++i) {
      const Round& r = rounds[i];
      json << "    {\"triggers\": " << r.triggers
           << ", \"observe_million_tuples_per_sec\": " << r.mtps
           << ", \"paired_ratio_median\": " << r.ratio
           << ", \"eval_ns_per_epoch\": " << r.eval_ns_per_epoch << "}"
           << (i + 1 < rounds.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::printf("wrote %s\n", argv[1]);
  }
  return 0;
}
