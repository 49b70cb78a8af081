// Micro-benchmarks (§4.6): per-tuple update cost of the estimators and
// the distinct-count substrates, via google-benchmark.
//
// NIPS's O(K log K) per-item bound means its update cost must be flat in
// both attribute cardinality and stream length — compare against the
// hash-table exact counter whose cost (and memory) grows.

#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "baseline/distinct_sampling.h"
#include "baseline/exact_counter.h"
#include "baseline/ilc.h"
#include "baseline/sticky_sampling.h"
#include "core/nips_ci_ensemble.h"
#include "hash/hash_family.h"
#include "sketch/fm_sketch.h"
#include "sketch/hyperloglog.h"
#include "sketch/linear_counting.h"
#include "sketch/pcsa.h"
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

// Pre-generated workload: `range(0)` distinct itemsets, 8 tuples each,
// half implications half violators.
std::vector<std::pair<ItemsetKey, ItemsetKey>> MakeTuples(int64_t distinct) {
  std::vector<std::pair<ItemsetKey, ItemsetKey>> tuples;
  tuples.reserve(static_cast<size_t>(distinct) * 8);
  Rng rng(99);
  for (int64_t a = 0; a < distinct; ++a) {
    bool loyal = (a % 2) == 0;
    for (int rep = 0; rep < 8; ++rep) {
      tuples.emplace_back(static_cast<ItemsetKey>(a),
                          loyal ? 7 : rng.Uniform(1000));
    }
  }
  for (size_t i = tuples.size() - 1; i > 0; --i) {
    size_t j = rng.Uniform(i + 1);
    std::swap(tuples[i], tuples[j]);
  }
  return tuples;
}

template <typename MakeEstimator>
void RunEstimatorBenchmark(benchmark::State& state,
                           MakeEstimator make_estimator) {
  auto tuples = MakeTuples(state.range(0));
  size_t memory = 0;
  for (auto _ : state) {
    auto estimator = make_estimator();
    for (const auto& [a, b] : tuples) estimator->Observe(a, b);
    benchmark::DoNotOptimize(estimator->EstimateImplicationCount());
    memory = estimator->MemoryBytes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
  state.counters["memory_bytes"] = static_cast<double>(memory);
}

void BM_NipsCi(benchmark::State& state) {
  RunEstimatorBenchmark(state, [] {
    NipsCiOptions opts;
    opts.seed = 3;
    return std::make_unique<NipsCi>(BenchConditions(), opts);
  });
}
BENCHMARK(BM_NipsCi)->Arg(1000)->Arg(10000)->Arg(100000);

// The batched ingest fast path: identical sketch, amortized dispatch,
// precomputed hashes, prefetched cells. The delta against BM_NipsCi at
// the same arg is the ObserveBatch win.
void BM_NipsCiObserveBatch(benchmark::State& state) {
  auto pairs = MakeTuples(state.range(0));
  std::vector<ItemsetPair> tuples;
  tuples.reserve(pairs.size());
  for (const auto& [a, b] : pairs) tuples.push_back(ItemsetPair{a, b});
  constexpr size_t kSpan = 4096;
  size_t memory = 0;
  for (auto _ : state) {
    NipsCiOptions opts;
    opts.seed = 3;
    NipsCi estimator(BenchConditions(), opts);
    std::span<const ItemsetPair> all(tuples);
    for (size_t i = 0; i < all.size(); i += kSpan) {
      estimator.ObserveBatch(all.subspan(i, std::min(kSpan, all.size() - i)));
    }
    benchmark::DoNotOptimize(estimator.EstimateImplicationCount());
    memory = estimator.MemoryBytes();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(tuples.size()));
  state.counters["memory_bytes"] = static_cast<double>(memory);
}
BENCHMARK(BM_NipsCiObserveBatch)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Exact(benchmark::State& state) {
  RunEstimatorBenchmark(state, [] {
    return std::make_unique<ExactImplicationCounter>(BenchConditions());
  });
}
BENCHMARK(BM_Exact)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_DistinctSampling(benchmark::State& state) {
  RunEstimatorBenchmark(state, [] {
    DistinctSamplingOptions opts;
    opts.seed = 3;
    return std::make_unique<DistinctSampling>(BenchConditions(), opts);
  });
}
BENCHMARK(BM_DistinctSampling)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Ilc(benchmark::State& state) {
  RunEstimatorBenchmark(state, [] {
    return std::make_unique<Ilc>(BenchConditions(), IlcOptions{});
  });
}
BENCHMARK(BM_Ilc)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_Iss(benchmark::State& state) {
  RunEstimatorBenchmark(state, [] {
    StickySamplingOptions opts;
    opts.seed = 3;
    return std::make_unique<ImplicationStickySampling>(BenchConditions(),
                                                       opts);
  });
}
BENCHMARK(BM_Iss)->Arg(1000)->Arg(10000)->Arg(100000);

// Distributed-aggregation path: serialize + deserialize + merge of a
// loaded 64-bitmap ensemble (what an edge router ships per interval).
void BM_SerializeMergeRoundTrip(benchmark::State& state) {
  auto tuples = MakeTuples(20000);
  NipsCiOptions opts;
  opts.seed = 3;
  NipsCi edge(BenchConditions(), opts);
  for (const auto& [a, b] : tuples) edge.Observe(a, b);
  const std::string bytes = edge.Serialize();
  for (auto _ : state) {
    NipsCi core(BenchConditions(), opts);
    auto shipped = NipsCi::Deserialize(bytes);
    if (!shipped.ok() || !core.Merge(*shipped).ok()) {
      state.SkipWithError("round trip failed");
      return;
    }
    benchmark::DoNotOptimize(core.EstimateImplicationCount());
  }
  state.counters["wire_bytes"] = static_cast<double>(bytes.size());
}
BENCHMARK(BM_SerializeMergeRoundTrip);

// Distinct-count substrates: raw Add() throughput.
template <typename Sketch, typename... Args>
void RunSketchBenchmark(benchmark::State& state, Args... args) {
  Sketch sketch(MakeHasher(HashKind::kMix, 1), args...);
  uint64_t key = 0;
  for (auto _ : state) {
    sketch.Add(SplitMix64(key++));
    benchmark::DoNotOptimize(sketch);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_FmSketchAdd(benchmark::State& state) {
  RunSketchBenchmark<FmSketch>(state);
}
BENCHMARK(BM_FmSketchAdd);

void BM_PcsaAdd(benchmark::State& state) {
  RunSketchBenchmark<Pcsa>(state, 64);
}
BENCHMARK(BM_PcsaAdd);

void BM_HyperLogLogAdd(benchmark::State& state) {
  RunSketchBenchmark<HyperLogLog>(state, 12);
}
BENCHMARK(BM_HyperLogLogAdd);

void BM_LinearCountingAdd(benchmark::State& state) {
  RunSketchBenchmark<LinearCounting>(state, size_t{1} << 16);
}
BENCHMARK(BM_LinearCountingAdd);

}  // namespace
}  // namespace implistat

BENCHMARK_MAIN();
