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

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cql/parser.h"
#include "obs/estimator_probe.h"
#include "obs/export_json.h"
#include "obs/export_prometheus.h"
#include "obs/progress.h"
#include "query/engine.h"
#include "query/parser.h"
#include "stream/csv_io.h"
#include "util/fileio.h"

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
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto take_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--checkpoint") {
      const char* v = take_value("--checkpoint");
      if (v == nullptr) return 2;
      checkpoint_path = v;
    } else if (arg == "--checkpoint-every") {
      const char* v = take_value("--checkpoint-every");
      if (v == nullptr) return 2;
      checkpoint_every = std::strtoull(v, nullptr, 10);
    } else if (arg == "--restore") {
      const char* v = take_value("--restore");
      if (v == nullptr) return 2;
      restore_path = v;
    } else if (arg == "--metrics-every") {
      const char* v = take_value("--metrics-every");
      if (v == nullptr) return 2;
      metrics_every = std::strtoull(v, nullptr, 10);
    } else if (arg == "--metrics-json") {
      const char* v = take_value("--metrics-json");
      if (v == nullptr) return 2;
      metrics_json_path = v;
    } else if (arg == "--metrics-prom") {
      const char* v = take_value("--metrics-prom");
      if (v == nullptr) return 2;
      metrics_prom_path = v;
    } else if (arg == "--trigger") {
      const char* v = take_value("--trigger");
      if (v == nullptr) return 2;
      StatusOr<std::string> script = ReadFileToString(v);
      if (!script.ok()) {
        std::cerr << "cannot read " << v << ": " << script.status() << "\n";
        return 1;
      }
      for (std::string& statement : cql::SplitStatements(*script)) {
        trigger_statements.push_back(std::move(statement));
      }
    } else if (arg == "--trigger-expr") {
      const char* v = take_value("--trigger-expr");
      if (v == nullptr) return 2;
      for (std::string& statement : cql::SplitStatements(v)) {
        trigger_statements.push_back(std::move(statement));
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << "\n";
      return Usage(argv[0]);
    } else {
      positional.push_back(std::move(arg));
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

  // A checkpoint embeds the value dictionaries of the run that wrote it.
  // Seeding the CSV reader with them makes the replayed file's ids line
  // up with the estimator states no matter how its rows are ordered —
  // first-appearance interning order stops mattering across restarts.
  std::vector<ValueDictionary> seed;
  if (!restore_path.empty()) {
    StatusOr<std::string> bytes = ReadFileToString(restore_path);
    if (!bytes.ok()) {
      std::cerr << "restore error: " << bytes.status() << "\n";
      return 1;
    }
    StatusOr<std::vector<ValueDictionary>> peeked =
        PeekCheckpointDictionaries(*bytes);
    if (!peeked.ok()) {
      std::cerr << "restore error: " << peeked.status() << "\n";
      return 1;
    }
    seed = std::move(peeked).value();
  }

  StatusOr<CsvTable> table = [&]() -> StatusOr<CsvTable> {
    if (positional[0] == "-") return ReadCsv(std::cin, std::move(seed));
    std::ifstream file(positional[0]);
    if (!file) return Status::IOError("cannot open " + positional[0]);
    return ReadCsv(file, std::move(seed));
  }();
  if (!table.ok()) {
    std::cerr << "input error: " << table.status() << "\n";
    return 1;
  }

  QueryEngine engine(table->schema);
  // Attach the dictionaries so checkpoints carry them.
  if (Status status = engine.SetDictionaries(table->dictionaries);
      !status.ok()) {
    std::cerr << "dictionary error: " << status << "\n";
    return 1;
  }
  if (!restore_path.empty()) {
    Status restored = engine.Restore(restore_path);
    if (!restored.ok()) {
      std::cerr << "restore error: " << restored << "\n";
      return 1;
    }
    if (engine.num_queries() == 0) {
      std::cerr << "restore error: checkpoint holds no queries\n";
      return 1;
    }
    std::cerr << "restored " << engine.num_queries() << " queries at "
              << engine.tuples_seen() << " tuples from " << restore_path
              << "\n";
  }
  for (size_t i = 1; i < positional.size(); ++i) {
    auto parsed = ParseImplicationQuery(positional[i]);
    if (!parsed.ok()) {
      std::cerr << "parse error in query " << i << ": " << parsed.status()
                << "\n";
      return 1;
    }
    auto spec = BindQuery(*parsed, table->schema, &table->dictionaries);
    if (!spec.ok()) {
      std::cerr << "bind error in query " << i << ": " << spec.status()
                << "\n";
      return 1;
    }
    auto id = engine.Register(std::move(spec).value());
    if (!id.ok()) {
      std::cerr << "register error in query " << i << ": " << id.status()
                << "\n";
      return 1;
    }
  }

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

  while (auto tuple = table->stream.Next()) {
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
