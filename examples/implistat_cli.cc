// implistat_cli: run implication queries against CSV data.
//
//   implistat_cli [options] <file.csv|-> "QUERY" ["QUERY" ...]
//
// Each query uses the paper's SQL-like format (§3 / query/parser.h):
//
//   SELECT COUNT(DISTINCT Destination) FROM traffic
//   WHERE Destination IMPLIES Source
//     AND Time = 'Morning'
//   WITH K = 1, SUPPORT = 5, CONFIDENCE = 0.8, C = 1, ESTIMATOR = NIPS
//
// All queries stream over the input in a single pass, exactly as a router
// or sensor node would run them.
//
// Observability options (see the README "Observability" section):
//   --metrics-every N     print a progress line to stderr every N tuples
//                         (tuples/sec, S / ~S, fringe occupancy vs the
//                         §4.6 budget, memory)
//   --metrics-json PATH   write a final JSON metrics snapshot
//   --metrics-prom PATH   write the same snapshot in Prometheus text format

#include <fstream>
#include <iostream>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cli_common.h"
#include "obs/estimator_probe.h"
#include "obs/export_json.h"
#include "obs/export_prometheus.h"
#include "obs/progress.h"

namespace {

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [options] <file.csv|-> \"QUERY\" ...\n\n"
      << "options:\n"
      << "  --checkpoint PATH     write an atomic engine checkpoint to PATH\n"
      << "                        after the stream (and during it with\n"
      << "                        --checkpoint-every)\n"
      << "  --checkpoint-every N  also checkpoint every N tuples\n"
      << "  --restore PATH        resume from a checkpoint: queries, their\n"
      << "                        estimator states and the tuple count all\n"
      << "                        come from the file (pass no QUERY args)\n"
      << "  --metrics-every N     progress line to stderr every N tuples\n"
      << "  --metrics-json PATH   final JSON metrics snapshot\n"
      << "  --metrics-prom PATH   final Prometheus-text metrics snapshot\n"
      << "  --trigger FILE        install CREATE TRIGGER statements (';'-\n"
      << "                        separated) evaluated while streaming;\n"
      << "                        firings print to stdout; repeatable\n"
      << "  --trigger-expr STR    one CREATE TRIGGER statement inline;\n"
      << "                        repeatable\n\n"
      << "example query:\n"
      << "  SELECT COUNT(DISTINCT Destination) FROM t\n"
      << "  WHERE Destination IMPLIES Source\n"
      << "  WITH K = 1, SUPPORT = 1, CONFIDENCE = 1.0\n";
  return 2;
}

bool WriteFile(const std::string& path, const std::string& contents,
               const char* what) {
  std::ofstream file(path);
  if (!file) {
    std::cerr << "cannot open " << path << " for " << what << "\n";
    return false;
  }
  file << contents;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace implistat;

  std::string checkpoint_path;
  uint64_t checkpoint_every = 0;
  std::string restore_path;
  uint64_t metrics_every = 0;
  std::string metrics_json_path;
  std::string metrics_prom_path;
  std::vector<std::string> trigger_statements;
  std::vector<std::string> positional;
  examples::CommandLine flags(argc, argv);
  while (flags.Next()) {
    const std::string_view arg = flags.arg();
    if (arg == "--checkpoint") {
      if (!flags.String(&checkpoint_path)) return 2;
    } else if (arg == "--checkpoint-every") {
      if (!flags.Uint(&checkpoint_every, 0)) return 2;
    } else if (arg == "--restore") {
      if (!flags.String(&restore_path)) return 2;
    } else if (arg == "--metrics-every") {
      if (!flags.Uint(&metrics_every, 0)) return 2;
    } else if (arg == "--metrics-json") {
      if (!flags.String(&metrics_json_path)) return 2;
    } else if (arg == "--metrics-prom") {
      if (!flags.String(&metrics_prom_path)) return 2;
    } else if (flags.IsTrigger()) {
      if (int code = flags.Triggers(&trigger_statements); code != 0) {
        return code;
      }
    } else if (arg.starts_with("--")) {
      std::cerr << "unknown option " << arg << "\n";
      return Usage(argv[0]);
    } else {
      positional.emplace_back(arg);
    }
  }
  // With --restore, the checkpoint is the source of truth for queries:
  // only the input file is positional. Without it, at least one query.
  if (restore_path.empty()) {
    if (positional.size() < 2) return Usage(argv[0]);
  } else if (positional.size() != 1) {
    std::cerr << "--restore takes its queries from the checkpoint; pass "
                 "only the input file\n";
    return 2;
  }
  if (checkpoint_every > 0 && checkpoint_path.empty()) {
    std::cerr << "--checkpoint-every needs --checkpoint PATH\n";
    return 2;
  }
  const bool metrics_requested = metrics_every > 0 ||
                                 !metrics_json_path.empty() ||
                                 !metrics_prom_path.empty();

  std::optional<examples::LoadedEngine> loaded = examples::LoadEngine(
      positional[0], restore_path,
      std::span<const std::string>(positional).subspan(1));
  if (!loaded) return 1;
  CsvTable& table = loaded->table;
  QueryEngine& engine = *loaded->engine;

  for (const std::string& statement : trigger_statements) {
    StatusOr<std::string> name = engine.InstallTrigger(statement);
    if (!name.ok()) {
      std::cerr << name.status().message() << "\n";
      return 1;
    }
  }

  // The progress probe watches the first query's estimator (reports cover
  // the whole registry either way).
  obs::StreamProgressOptions progress_options;
  progress_options.every = metrics_every;
  obs::StreamProgressReporter reporter(
      progress_options,
      obs::MakeEstimatorProbe(engine.Estimator(0).value()));

  auto report_firings = [&engine]() {
    if (!engine.has_pending_trigger_firings()) return;
    for (const cql::TriggerFiring& firing : engine.TakeTriggerFirings()) {
      std::cout << "trigger " << firing.trigger << " fired at epoch "
                << firing.epoch << " (value " << firing.value << ")\n";
    }
  };

  while (auto tuple = table.stream.Next()) {
    engine.ObserveTuple(*tuple);
    report_firings();
    reporter.Tick();
    if (checkpoint_every > 0 &&
        engine.tuples_seen() % checkpoint_every == 0) {
      Status status = engine.Checkpoint(checkpoint_path);
      if (!status.ok()) {
        std::cerr << "checkpoint error at " << engine.tuples_seen()
                  << " tuples: " << status << "\n";
        return 1;
      }
    }
  }
  report_firings();
  if (!checkpoint_path.empty()) {
    Status status = engine.Checkpoint(checkpoint_path);
    if (!status.ok()) {
      std::cerr << "final checkpoint error: " << status << "\n";
      return 1;
    }
  }

  std::cout << "# " << engine.tuples_seen() << " tuples\n";
  for (QueryId id = 0; id < engine.num_queries(); ++id) {
    auto answer = engine.Answer(id);
    if (!answer.ok()) {
      std::cerr << "query " << id + 1 << " failed: " << answer.status()
                << "\n";
      return 1;
    }
    const ImplicationEstimator* est = engine.Estimator(id).value();
    std::cout << "query " << id + 1 << " [" << est->name()
              << "]: " << *answer << "   (memory: " << est->MemoryBytes()
              << " bytes)\n";
  }

  if (metrics_requested) {
    reporter.Finish();  // final line + gauge refresh
    obs::RegistrySnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
    if (!metrics_json_path.empty() &&
        !WriteFile(metrics_json_path, obs::WriteMetricsJson(snapshot),
                   "metrics JSON")) {
      return 1;
    }
    if (!metrics_prom_path.empty() &&
        !WriteFile(metrics_prom_path, obs::WriteMetricsPrometheus(snapshot),
                   "metrics Prometheus text")) {
      return 1;
    }
    if constexpr (!obs::kMetricsEnabled) {
      std::cerr << "note: built with IMPLISTAT_METRICS=OFF; snapshots are "
                   "empty\n";
    }
  }
  return 0;
}
