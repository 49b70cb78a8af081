// Fleet-scale delta shipping benchmark: what SNAPSHOT_DELTA saves when
// hundreds of NIPS/CI edges ship state every poll.
//
// Sockets would dominate at this fan-out, so the fleet is in-process:
// each edge is a live estimator fed its own slice of a shared tape, and
// the aggregator side is exercised exactly as the supervisor drives it —
// bootstrap a twin per edge from a full snapshot (MaterializeEstimator),
// then per round ship SerializeDelta -> WrapDeltaSnapshot ->
// ApplyDeltaSnapshot and fold the twins. Measured per fleet size:
//   * full_kb_per_poll   — bytes a full-snapshot fleet ships per round
//                          (sum of every edge's serialized state)
//   * delta_kb_per_poll  — bytes the delta fleet actually ships (sealed
//                          kDeltaSnapshot envelopes, RLE negotiated)
//   * reduction          — full/delta ratio (the subsystem's reason to
//                          exist; the run FAILS below kMinReduction)
//   * apply_ms_per_poll  — applying every edge's patch at the aggregator
//   * fold_ms_per_poll   — merging all twins into one aggregate
//   * staleness_ms       — nominal 1 s ship interval / 2 + measured
//                          apply+fold time (mean tuple-to-aggregate lag)
//
// Self-verifying, twice over: every edge's twin must stay byte-identical
// to the edge after every patch, and the aggregate folded from twins must
// serialize byte-identical to one folded from the edges' own full
// snapshots. Any mismatch fails the run.
//
// Scale knobs: IMPLISTAT_FULL=1 doubles the fleet. An optional argv[1]
// names a JSON output file (results/BENCH_fleet.json is the checked-in
// copy).

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/estimator.h"
#include "core/nips_ci_ensemble.h"
#include "delta/delta.h"

namespace implistat {
namespace {

// The acceptance floor: a fleet must ship at least this many times fewer
// bytes per poll with deltas than with full snapshots. The ratio is a
// byte count, so it repeats exactly; it reads 20.9x at 128 and 256 edges.
constexpr double kMinReduction = 15.0;

ImplicationConditions BenchCond() {
  ImplicationConditions cond;
  cond.max_multiplicity = 1;
  cond.min_support = 2;
  cond.min_top_confidence = 1.0;
  cond.confidence_c = 1;
  return cond;
}

NipsCiOptions BenchOpts() {
  NipsCiOptions options;
  options.num_bitmaps = 8;
  options.seed = 5;
  return options;
}

std::unique_ptr<ImplicationEstimator> MakeNips() {
  return std::make_unique<NipsCi>(BenchCond(), BenchOpts());
}

// Deterministic loyal/violator stream; every edge consumes its own slice
// of the shared tape so the fleet models a partitioned union stream.
void Feed(ImplicationEstimator* est, uint64_t begin, uint64_t end) {
  for (uint64_t t = begin; t < end; ++t) {
    ItemsetKey a = t % 997;
    ItemsetKey b = (a % 5 == 0) ? 1 + t % 2 : 1;  // 20% violators
    est->Observe(a, b);
  }
}

double NowMsF() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Row {
  int num_edges = 0;
  int rounds = 0;
  uint64_t warmup_per_edge = 0;
  uint64_t increment_per_edge = 0;
  double full_kb_per_poll = 0;
  double delta_kb_per_poll = 0;
  double reduction = 0;
  double apply_ms_per_poll = 0;
  double fold_ms_per_poll = 0;
  double staleness_ms = 0;
};

struct EdgeState {
  std::unique_ptr<ImplicationEstimator> source;  // the edge
  std::unique_ptr<ImplicationEstimator> twin;    // the aggregator's copy
  uint64_t epoch = 0;
};

}  // namespace
}  // namespace implistat

int main(int argc, char** argv) {
  using namespace implistat;
  const bool full_run = bench::EnvFull();
  const std::vector<int> fleet_sizes =
      full_run ? std::vector<int>{128, 256, 512} : std::vector<int>{128, 256};
  const uint64_t warmup = 2000;
  const uint64_t increment = 100;
  constexpr int kRounds = 5;
  constexpr int64_t kShipIntervalMs = 1000;

  bench::PrintHeaderBanner(
      "Fleet-scale delta shipping (bandwidth / fold cost / staleness)",
      "in-process NIPS/CI edges; every twin verified byte-identical to its "
      "edge after every patch; every fold verified byte-identical to a "
      "full-snapshot fold");
  std::printf("warmup=%llu tuples/edge, increment=%llu tuples/edge/round, "
              "rounds=%d\n\n",
              static_cast<unsigned long long>(warmup),
              static_cast<unsigned long long>(increment), kRounds);

  std::vector<Row> rows;
  for (int num_edges : fleet_sizes) {
    uint64_t tape = 0;
    std::vector<EdgeState> edges(static_cast<size_t>(num_edges));
    for (EdgeState& edge : edges) {
      edge.source = MakeNips();
      Feed(edge.source.get(), tape, tape + warmup);
      tape += warmup;
      // Bootstrap pull: full snapshot, twin materialized, epoch acked —
      // exactly the supervisor's first round.
      auto state = edge.source->SerializeState();
      if (!state.ok()) return 1;
      auto twin = MaterializeEstimator(*state);
      if (!twin.ok()) {
        std::fprintf(stderr, "materialize failed: %s\n",
                     twin.status().ToString().c_str());
        return 1;
      }
      edge.twin = std::move(*twin);
      edge.epoch = 1;
      edge.source->NoteSnapshotEpoch(edge.epoch);
    }

    Row row;
    row.num_edges = num_edges;
    row.rounds = kRounds;
    row.warmup_per_edge = warmup;
    row.increment_per_edge = increment;

    uint64_t full_bytes = 0, delta_bytes = 0;
    double apply_ms = 0, fold_ms = 0;
    for (int round = 1; round <= kRounds; ++round) {
      // The fleet ingests; each edge advances one epoch.
      for (EdgeState& edge : edges) {
        Feed(edge.source.get(), tape, tape + increment);
        tape += increment;
      }
      // The aggregator polls every edge: serialize the patch, seal it,
      // apply it to the twin, and demand byte identity.
      std::vector<std::string> sealed(edges.size());
      for (size_t e = 0; e < edges.size(); ++e) {
        EdgeState& edge = edges[e];
        auto fragment =
            edge.source->SerializeDelta(edge.epoch, edge.epoch + 1);
        if (!fragment.ok()) {
          std::fprintf(stderr, "SerializeDelta failed: %s\n",
                       fragment.status().ToString().c_str());
          return 1;
        }
        sealed[e] = WrapDeltaSnapshot(edge.epoch, edge.epoch + 1, *fragment,
                                      /*allow_rle=*/true);
        delta_bytes += sealed[e].size();
        auto full = edge.source->SerializeState();
        if (!full.ok()) return 1;
        full_bytes += full->size();
      }
      const double apply_start = NowMsF();
      for (size_t e = 0; e < edges.size(); ++e) {
        EdgeState& edge = edges[e];
        auto info =
            ApplyDeltaSnapshot(edge.twin.get(), sealed[e], edge.epoch);
        if (!info.ok()) {
          std::fprintf(stderr, "ApplyDeltaSnapshot failed: %s\n",
                       info.status().ToString().c_str());
          return 1;
        }
        edge.epoch = info->new_epoch;
      }
      apply_ms += NowMsF() - apply_start;
      for (EdgeState& edge : edges) {
        auto twin_state = edge.twin->SerializeState();
        auto source_state = edge.source->SerializeState();
        if (!twin_state.ok() || !source_state.ok() ||
            *twin_state != *source_state) {
          std::fprintf(stderr,
                       "VERIFY FAILED: twin diverged from edge "
                       "(round=%d)\n",
                       round);
          return 1;
        }
      }
      // Fold the twins into one aggregate and prove the fold cannot
      // tell patched twins from freshly shipped full snapshots.
      const double fold_start = NowMsF();
      auto from_twins = MakeNips();
      for (EdgeState& edge : edges) {
        if (!from_twins->MergeFrom(*edge.twin).ok()) return 1;
      }
      fold_ms += NowMsF() - fold_start;
      auto from_edges = MakeNips();
      for (EdgeState& edge : edges) {
        if (!from_edges->MergeFrom(*edge.source).ok()) return 1;
      }
      auto twins_state = from_twins->SerializeState();
      auto edges_state = from_edges->SerializeState();
      if (!twins_state.ok() || !edges_state.ok() ||
          *twins_state != *edges_state) {
        std::fprintf(stderr,
                     "VERIFY FAILED: fold over twins != fold over edges "
                     "(round=%d)\n",
                     round);
        return 1;
      }
    }

    row.full_kb_per_poll =
        static_cast<double>(full_bytes) / kRounds / 1024.0;
    row.delta_kb_per_poll =
        static_cast<double>(delta_bytes) / kRounds / 1024.0;
    row.reduction = static_cast<double>(full_bytes) /
                    static_cast<double>(delta_bytes > 0 ? delta_bytes : 1);
    row.apply_ms_per_poll = apply_ms / kRounds;
    row.fold_ms_per_poll = fold_ms / kRounds;
    row.staleness_ms = static_cast<double>(kShipIntervalMs) / 2 +
                       row.apply_ms_per_poll + row.fold_ms_per_poll;
    rows.push_back(row);

    if (row.reduction < kMinReduction) {
      std::fprintf(stderr,
                   "REGRESSION: delta reduction %.2fx below the %.1fx floor "
                   "at %d edges\n",
                   row.reduction, kMinReduction, num_edges);
      return 1;
    }
  }

  std::printf("%6s %14s %15s %10s %9s %8s %12s\n", "edges", "full_kb/poll",
              "delta_kb/poll", "reduction", "apply_ms", "fold_ms",
              "staleness_ms");
  for (const Row& r : rows) {
    std::printf("%6d %14.1f %15.1f %9.1fx %9.2f %8.2f %12.2f\n",
                r.num_edges, r.full_kb_per_poll, r.delta_kb_per_poll,
                r.reduction, r.apply_ms_per_poll, r.fold_ms_per_poll,
                r.staleness_ms);
  }
  std::printf("\nall twins byte-identical to their edges; all folds "
              "byte-identical to full-snapshot folds\n");

  if (argc > 1) {
    std::ofstream json(argv[1]);
    if (!json) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    bench::WriteResultsHeader(json, "fleet_scale", kRounds);
    json << "  \"workload\": \"deterministic loyal/violator tape partitioned "
         << "across in-process NIPS/CI edges; per round each edge ingests an "
         << "increment and ships a sealed kDeltaSnapshot patch (RLE "
         << "negotiated)\",\n"
         << "  \"warmup_per_edge\": " << warmup << ",\n"
         << "  \"increment_per_edge\": " << increment << ",\n"
         << "  \"ship_interval_ms\": " << kShipIntervalMs << ",\n"
         << "  \"min_nips_ci_reduction\": " << kMinReduction << ",\n"
         << "  \"note\": \"every twin verified byte-identical to its edge "
         << "after every patch; NIPS/CI aggregate folded from twins verified "
         << "byte-identical to one folded from full snapshots; staleness_ms "
         << "= ship_interval/2 + apply + fold\",\n"
         << "  \"fleets\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      json << "    {\"kind\": \"nips_ci\""
           << ", \"num_edges\": " << r.num_edges
           << ", \"full_kb_per_poll\": " << r.full_kb_per_poll
           << ", \"delta_kb_per_poll\": " << r.delta_kb_per_poll
           << ", \"reduction\": " << r.reduction
           << ", \"apply_ms_per_poll\": " << r.apply_ms_per_poll
           << ", \"fold_ms_per_poll\": " << r.fold_ms_per_poll
           << ", \"staleness_ms\": " << r.staleness_ms << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "[implistat] fleet scale -> %s\n", argv[1]);
  }
  bench::MaybeWriteMetricsJson();
  return 0;
}
