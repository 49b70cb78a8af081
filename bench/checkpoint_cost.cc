// Checkpoint cost: snapshot size and save/restore latency for every
// durable estimator kind after ingesting a 1M-tuple stream.
//
// The paper's constrained-environment pitch is that the summaries are
// small; this bench shows the durable-state layer keeps that property:
// a NIPS/CI checkpoint is kilobytes and microseconds while the exact
// hash table pays megabytes. Restores are verified (the restored
// estimator must answer identically) before a row is reported.
//
// Scale knobs: IMPLISTAT_TRIALS (default 3), IMPLISTAT_FULL=1 (4M
// tuples). An optional argv[1] names a JSON output file
// (results/BENCH_checkpoint.json is the checked-in copy).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baseline/distinct_sampling.h"
#include "baseline/exact_counter.h"
#include "baseline/ilc.h"
#include "baseline/sticky_sampling.h"
#include "bench_util.h"
#include "core/estimator.h"
#include "core/nips_ci_ensemble.h"
#include "core/sliding.h"
#include "util/random.h"

namespace implistat {
namespace {

ImplicationConditions BenchConditions() {
  ImplicationConditions cond;
  cond.max_multiplicity = 2;
  cond.min_support = 5;
  cond.min_top_confidence = 0.8;
  cond.confidence_c = 1;
  cond.strict_multiplicity = false;
  return cond;
}

NipsCiOptions EnsembleOptions() {
  NipsCiOptions opts;
  opts.seed = 17;
  return opts;
}

struct KindSpec {
  std::string name;
  std::function<std::unique_ptr<ImplicationEstimator>()> make;
};

std::vector<KindSpec> AllKinds() {
  std::vector<KindSpec> kinds;
  kinds.push_back({"nips_ci", [] {
                     return std::make_unique<NipsCi>(BenchConditions(),
                                                     EnsembleOptions());
                   }});
  kinds.push_back({"sliding_nips_ci", [] {
                     SlidingOptions opts;
                     opts.window = 1 << 16;
                     opts.stride = 1 << 13;
                     opts.estimator = EnsembleOptions();
                     return std::make_unique<SlidingNipsCi>(
                         BenchConditions(), opts);
                   }});
  kinds.push_back({"distinct_sampling", [] {
                     DistinctSamplingOptions opts;
                     opts.seed = 5;
                     return std::make_unique<DistinctSampling>(
                         BenchConditions(), opts);
                   }});
  kinds.push_back({"ilc", [] {
                     IlcOptions opts;
                     opts.epsilon = 0.01;
                     return std::make_unique<Ilc>(BenchConditions(), opts);
                   }});
  kinds.push_back({"sticky_sampling", [] {
                     StickySamplingOptions opts;
                     opts.epsilon = 0.001;
                     opts.delta = 0.01;
                     opts.support = 0.01;
                     opts.seed = 13;
                     return std::make_unique<ImplicationStickySampling>(
                         BenchConditions(), opts);
                   }});
  kinds.push_back({"exact", [] {
                     return std::make_unique<ExactImplicationCounter>(
                         BenchConditions());
                   }});
  return kinds;
}

struct Row {
  std::string name;
  size_t snapshot_bytes = 0;
  size_t memory_bytes = 0;
  bench::MeanStd serialize_us;
  bench::MeanStd restore_us;
};

double ElapsedUs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double, std::micro> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const uint64_t n = bench::EnvFull() ? 4000000 : 1000000;
  const int trials = bench::EnvTrials();

  bench::PrintHeaderBanner(
      "Checkpoint cost (snapshot size, save/restore latency)",
      "loyal/violator workload; restored estimators verified before "
      "reporting");
  std::printf("n=%llu tuples, trials=%d\n\n",
              static_cast<unsigned long long>(n), trials);

  // Half loyal itemsets (one b forever), half violators (random b),
  // 200k distinct itemsets.
  Rng workload_rng(99);
  std::vector<ItemsetPair> tuples;
  tuples.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ItemsetKey a = workload_rng.Uniform(200000);
    bool loyal = (a % 2) == 0;
    tuples.push_back(ItemsetPair{a, loyal ? 7 : workload_rng.Uniform(1000)});
  }

  std::vector<Row> rows;
  for (const KindSpec& kind : AllKinds()) {
    std::unique_ptr<ImplicationEstimator> est = kind.make();
    for (const ItemsetPair& p : tuples) est->Observe(p.a, p.b);
    const double answer = est->EstimateImplicationCount();

    Row row;
    row.name = kind.name;
    row.memory_bytes = est->MemoryBytes();
    std::string snapshot;
    std::vector<double> save_us, load_us;
    for (int t = 0; t < trials; ++t) {
      save_us.push_back(ElapsedUs([&] {
        auto s = est->SerializeState();
        if (!s.ok()) {
          std::fprintf(stderr, "%s: serialize failed: %s\n",
                       kind.name.c_str(), std::string(s.status().message())
                                              .c_str());
          std::exit(1);
        }
        snapshot = std::move(*s);
      }));
      std::unique_ptr<ImplicationEstimator> restored = kind.make();
      load_us.push_back(ElapsedUs([&] {
        Status s = restored->RestoreState(snapshot);
        if (!s.ok()) {
          std::fprintf(stderr, "%s: restore failed: %s\n", kind.name.c_str(),
                       std::string(s.message()).c_str());
          std::exit(1);
        }
      }));
      if (restored->EstimateImplicationCount() != answer) {
        std::fprintf(stderr, "%s: restored answer diverged\n",
                     kind.name.c_str());
        return 1;
      }
    }
    row.snapshot_bytes = snapshot.size();
    row.serialize_us = bench::Summarize(save_us);
    row.restore_us = bench::Summarize(load_us);
    rows.push_back(row);
  }

  std::printf("%-20s %14s %14s %12s %12s\n", "kind", "snapshot_B",
              "memory_B", "save_us", "restore_us");
  for (const Row& r : rows) {
    std::printf("%-20s %14zu %14zu %12.0f %12.0f\n", r.name.c_str(),
                r.snapshot_bytes, r.memory_bytes, r.serialize_us.mean,
                r.restore_us.mean);
  }

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    bench::WriteResultsHeader(json, "checkpoint_cost", trials);
    json << "  \"workload\": \"loyal/violator, 200k distinct itemsets\",\n"
         << "  \"n_tuples\": " << n << ",\n"
         << "  \"note\": \"snapshot_bytes includes the versioned envelope "
         << "(magic, version, kind, length, CRC32C); every restore is "
         << "verified to answer identically before timing is reported\",\n"
         << "  \"kinds\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json << "    {\"name\": \"" << r.name << "\", \"snapshot_bytes\": "
           << r.snapshot_bytes << ", \"memory_bytes\": " << r.memory_bytes
           << ", \"serialize_us\": "
           << static_cast<uint64_t>(r.serialize_us.mean)
           << ", \"serialize_us_stddev\": "
           << static_cast<uint64_t>(r.serialize_us.stddev)
           << ", \"restore_us\": "
           << static_cast<uint64_t>(r.restore_us.mean)
           << ", \"restore_us_stddev\": "
           << static_cast<uint64_t>(r.restore_us.stddev) << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "[implistat] checkpoint cost -> %s\n", argv[1]);
  }
  bench::MaybeWriteMetricsJson();
  return 0;
}
