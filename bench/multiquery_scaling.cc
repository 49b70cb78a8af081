// Multi-query scaling: memory and ingest throughput for N overlapping
// queries in one engine with the shared synopsis store vs. the dedicated
// layout, N engines with one query each.
//
// Workload: N tenant queries drawn from a fixed pool of 16 distinct
// templates — the multi-tenant shape where many dashboards register the
// same statistic. The shared engine collapses the N registrations onto
// one synopsis per template, so memory is flat in N while the dedicated
// layout grows linearly; ingest scales with live synopses instead of
// registered queries.
//
// The run self-verifies the tentpole claim before reporting: every
// tenant's answer from the shared engine is BIT-IDENTICAL to its own
// one-query engine (same estimator bytes, same observation sequence) —
// any mismatch aborts the bench.
//
// Timing: one discarded warm-up round at the smallest N, then each N
// runs IMPLISTAT_TRIALS times (default 3) and reports the median
// register and ingest times per arm; synopsis counts and memory repeat
// exactly. Scale knobs: IMPLISTAT_FULL=1 (200k tuples; default 20k). An
// optional argv[1] names a JSON output file (results/BENCH_multiquery.json
// is the checked-in copy; the CI bench-regression job gates on its
// N=1024 memory ratio).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat {
namespace {

Schema BenchSchema() {
  return Schema({{"Source", 50000},
                 {"Destination", 1000},
                 {"Service", 32},
                 {"Hour", 24}});
}

// 16 distinct templates: every (A, B) pairing below at each of four
// condition settings. All NIPS/CI with the same ensemble config, so a
// template is one synopsis key.
std::vector<ImplicationQuerySpec> Templates() {
  struct Shape {
    std::vector<std::string> a, b;
  };
  const std::vector<Shape> shapes = {
      {{"Source"}, {"Destination"}},
      {{"Destination"}, {"Source"}},
      {{"Source", "Service"}, {"Destination"}},
      {{"Service"}, {"Destination"}},
  };
  struct Knobs {
    uint32_t k;
    double gamma;
    uint32_t c;
  };
  const std::vector<Knobs> knobs = {
      {1, 1.0, 1}, {2, 0.9, 1}, {1, 0.8, 2}, {4, 0.95, 2}};
  std::vector<ImplicationQuerySpec> templates;
  for (const Shape& shape : shapes) {
    for (const Knobs& knob : knobs) {
      ImplicationQuerySpec spec;
      spec.a_attributes = shape.a;
      spec.b_attributes = shape.b;
      spec.conditions.max_multiplicity = knob.k;
      spec.conditions.min_support = 2;
      spec.conditions.min_top_confidence = knob.gamma;
      spec.conditions.confidence_c = knob.c;
      spec.conditions.strict_multiplicity = false;
      spec.estimator.kind = EstimatorKind::kNipsCi;
      spec.estimator.nips.num_bitmaps = 32;
      spec.estimator.nips.seed = 17;
      templates.push_back(std::move(spec));
    }
  }
  return templates;
}

struct EngineStats {
  int synopses = 0;
  uint64_t memory_bytes = 0;
  double register_ms = 0;
  double ingest_mtps = 0;
};

double ElapsedSec(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const uint64_t n_tuples = bench::EnvFull() ? 200000 : 20000;
  const std::vector<int> fleet_sizes = {64, 256, 1024};
  const int trials = bench::EnvTrials();

  bench::PrintHeaderBanner(
      "Multi-query scaling (shared synopsis store vs one engine per query)",
      "N tenants over 16 templates; answers verified bit-identical");
  std::printf("n=%llu tuples per engine, trials=%d (medians)\n\n",
              static_cast<unsigned long long>(n_tuples), trials);

  // One fixed tuple sequence for every engine: half the sources loyal to
  // one destination, half churning, services and hours cycling.
  Rng rng(99);
  std::vector<std::vector<ValueId>> rows;
  rows.reserve(n_tuples);
  for (uint64_t i = 0; i < n_tuples; ++i) {
    const ValueId source = static_cast<ValueId>(rng.Uniform(50000));
    const bool loyal = (source % 2) == 0;
    rows.push_back({source,
                    static_cast<ValueId>(loyal ? source % 1000
                                               : rng.Uniform(1000)),
                    static_cast<ValueId>(i % 32),
                    static_cast<ValueId>(i % 24)});
  }

  const std::vector<ImplicationQuerySpec> templates = Templates();

  struct Round {
    int n_queries;
    EngineStats sharing;
    EngineStats dedicated;
  };
  std::vector<Round> rounds;

  // One arm: tenant q registers on engine q % n_engines, so one engine
  // is the shared layout and n_queries engines the dedicated one.
  auto run_arm = [&](int n_queries, int n_engines, EngineStats* stats) {
    std::vector<std::unique_ptr<QueryEngine>> engines;
    for (int e = 0; e < n_engines; ++e) {
      engines.push_back(std::make_unique<QueryEngine>(BenchSchema()));
    }
    stats->register_ms = 1e3 * ElapsedSec([&] {
      for (int q = 0; q < n_queries; ++q) {
        auto id = engines[q % n_engines]->Register(
            templates[q % templates.size()]);
        if (!id.ok()) {
          std::fprintf(stderr, "register failed: %s\n",
                       std::string(id.status().message()).c_str());
          std::exit(1);
        }
      }
    });
    const double seconds = ElapsedSec([&] {
      for (const std::vector<ValueId>& row : rows) {
        for (const auto& engine : engines) {
          engine->ObserveTuple(TupleRef(row.data(), row.size()));
        }
      }
    });
    for (const auto& engine : engines) {
      stats->synopses += engine->num_synopses();
      stats->memory_bytes += engine->TotalSynopsisMemoryBytes();
    }
    stats->ingest_mtps = static_cast<double>(n_tuples) / seconds / 1e6;
    return engines;
  };

  // The first arms of a process pay page faults, allocator growth and
  // cold caches; this round absorbs them and is not reported.
  {
    EngineStats ignored;
    run_arm(fleet_sizes.front(), 1, &ignored);
    run_arm(fleet_sizes.front(), fleet_sizes.front(), &ignored);
  }

  for (int n_queries : fleet_sizes) {
    Round round;
    round.n_queries = n_queries;
    std::vector<double> register_ms[2], ingest_mtps[2];
    for (int t = 0; t < trials; ++t) {
      EngineStats shared_stats, dedicated_stats;
      const auto shared = run_arm(n_queries, 1, &shared_stats);
      const auto dedicated = run_arm(n_queries, n_queries, &dedicated_stats);

      // Self-verification: sharing must be invisible in the answers. All
      // templates are NIPS sketches, whose serialization is order-stable,
      // so we can demand byte-identical estimator state per tenant — not
      // just equal doubles.
      for (QueryId id = 0; id < n_queries; ++id) {
        auto a = shared[0]->Answer(id);
        auto b = dedicated[id]->Answer(0);
        auto ea = shared[0]->Estimator(id);
        auto eb = dedicated[id]->Estimator(0);
        auto sa = ea.ok() ? (*ea)->SerializeState()
                          : StatusOr<std::string>(ea.status());
        auto sb = eb.ok() ? (*eb)->SerializeState()
                          : StatusOr<std::string>(eb.status());
        if (!a.ok() || !b.ok() || *a != *b || !sa.ok() || !sb.ok() ||
            *sa != *sb) {
          std::fprintf(stderr,
                       "answer divergence at N=%d query %d: shared vs "
                       "dedicated are not bit-identical\n",
                       n_queries, id);
          return 1;
        }
      }
      round.sharing = shared_stats;
      round.dedicated = dedicated_stats;
      register_ms[0].push_back(shared_stats.register_ms);
      register_ms[1].push_back(dedicated_stats.register_ms);
      ingest_mtps[0].push_back(shared_stats.ingest_mtps);
      ingest_mtps[1].push_back(dedicated_stats.ingest_mtps);
    }
    round.sharing.register_ms = bench::Median(register_ms[0]);
    round.dedicated.register_ms = bench::Median(register_ms[1]);
    round.sharing.ingest_mtps = bench::Median(ingest_mtps[0]);
    round.dedicated.ingest_mtps = bench::Median(ingest_mtps[1]);
    rounds.push_back(round);
  }

  std::printf("%-10s %10s %10s %14s %14s %10s %12s %12s\n", "n_queries",
              "syn_share", "syn_dedic", "mem_share_B", "mem_dedic_B",
              "mem_ratio", "mtps_share", "mtps_dedic");
  for (const Round& r : rounds) {
    std::printf(
        "%-10d %10d %10d %14llu %14llu %10.3f %12.2f %12.2f\n",
        r.n_queries, r.sharing.synopses, r.dedicated.synopses,
        static_cast<unsigned long long>(r.sharing.memory_bytes),
        static_cast<unsigned long long>(r.dedicated.memory_bytes),
        static_cast<double>(r.sharing.memory_bytes) /
            static_cast<double>(r.dedicated.memory_bytes),
        r.sharing.ingest_mtps, r.dedicated.ingest_mtps);
  }

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    bench::WriteResultsHeader(json, "multiquery_scaling", trials);
    json << "  \"n_tuples\": " << n_tuples << ",\n"
         << "  \"templates\": " << templates.size() << ",\n"
         << "  \"note\": \"dedicated = N engines with one query each; "
         << "register_ms and ingest are medians over the trials, after "
         << "one discarded warm-up round; every trial verified: each of "
         << "the N queries answers bit-identically from the shared engine "
         << "and from its own engine before the row is reported\",\n"
         << "  \"rounds\": [\n";
    for (size_t i = 0; i < rounds.size(); ++i) {
      const Round& r = rounds[i];
      auto arm = [&](const char* name, const EngineStats& s,
                     bool last) {
        json << "      \"" << name << "\": {\"synopses\": " << s.synopses
             << ", \"memory_bytes\": " << s.memory_bytes
             << ", \"register_ms\": " << s.register_ms
             << ", \"ingest_million_tuples_per_sec\": " << s.ingest_mtps
             << "}" << (last ? "" : ",") << "\n";
      };
      json << "    {\"n_queries\": " << r.n_queries << ",\n";
      arm("sharing", r.sharing, false);
      arm("dedicated", r.dedicated, false);
      json << "      \"memory_ratio\": "
           << (static_cast<double>(r.sharing.memory_bytes) /
               static_cast<double>(r.dedicated.memory_bytes))
           << ",\n      \"answers_identical\": true}"
           << (i + 1 < rounds.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "[implistat] multi-query scaling -> %s\n",
                 argv[1]);
  }
  bench::MaybeWriteMetricsJson();
  return 0;
}
