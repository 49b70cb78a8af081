// implistat_server: serve implication queries over a socket.
//
//   implistat_server [options] <file.csv|-> "QUERY" ["QUERY" ...]
//   implistat_server [options] --restore PATH <file.csv|->
//
// Loads a CSV (dictionary-coding its values), registers the queries, and
// serves the wire protocol (src/net/wire.h): remote OBSERVE_BATCH ingest,
// QUERY readouts with error bars, SNAPSHOT/MERGE aggregation, METRICS,
// CHECKPOINT and graceful SHUTDOWN. SIGTERM/SIGINT drain cleanly; with
// --checkpoint they leave a restorable engine checkpoint behind.
//
// Pass an empty CSV body (header only) to start a blank aggregator that
// only ever ingests remotely. See README "Running as a service".

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cql/parser.h"
#include "net/server.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "query/parser.h"
#include "stream/csv_io.h"
#include "util/fileio.h"

namespace {

implistat::net::Server* g_server = nullptr;

void HandleSignal(int) {
  if (g_server != nullptr) g_server->Shutdown();
}

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] <file.csv|-> \"QUERY\" ...\n\n"
      << "options:\n"
      << "  --port N              TCP port (default 0 = ephemeral; the\n"
      << "                        bound port prints to stdout)\n"
      << "  --bind ADDR           bind address (default 127.0.0.1)\n"
      << "  --reactors N          epoll reactor threads serving\n"
      << "                        connections (default 1; the engine\n"
      << "                        still applies on exactly one thread)\n"
      << "  --pipeline-depth N    open requests allowed per connection\n"
      << "                        before the server pauses reading it\n"
      << "                        (default 128)\n"
      << "  --checkpoint PATH     serve CHECKPOINT requests at PATH and\n"
      << "                        write a final checkpoint on shutdown\n"
      << "  --restore PATH        resume queries + estimator state + value\n"
      << "                        dictionaries from a checkpoint (pass no\n"
      << "                        QUERY args)\n"
      << "  --idle-timeout-ms N   drop connections idle for N ms\n"
      << "  --trace-sample N      record 1 in N traces (default 64;\n"
      << "                        1 = every request, 0 = no new traces)\n"
      << "  --trace-json PATH     dump recorded spans as Chrome\n"
      << "                        trace_event JSON (Perfetto-loadable)\n"
      << "                        to PATH on shutdown\n"
      << "  --no-query-sharing    dedicated estimator per query (disable\n"
      << "                        the shared synopsis store)\n"
      << "  --trigger FILE        install CREATE TRIGGER statements (';'-\n"
      << "                        separated) before serving; repeatable\n"
      << "  --trigger-expr STR    one CREATE TRIGGER statement inline;\n"
      << "                        repeatable\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace implistat;

  int port = 0;
  std::string bind_address = "127.0.0.1";
  int reactors = 1;
  int pipeline_depth = 128;
  std::string checkpoint_path;
  std::string restore_path;
  int64_t idle_timeout_ms = 0;
  int trace_sample = -1;  // -1: keep the compiled-in default (64)
  std::string trace_json_path;
  std::vector<std::string> trigger_statements;
  QueryEngineOptions engine_options;
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
    if (arg == "--port") {
      const char* v = take_value("--port");
      if (v == nullptr) return 2;
      port = std::atoi(v);
    } else if (arg == "--bind") {
      const char* v = take_value("--bind");
      if (v == nullptr) return 2;
      bind_address = v;
    } else if (arg == "--reactors") {
      const char* v = take_value("--reactors");
      if (v == nullptr) return 2;
      reactors = std::atoi(v);
      if (reactors < 1) {
        std::cerr << "--reactors must be >= 1\n";
        return 2;
      }
    } else if (arg == "--pipeline-depth") {
      const char* v = take_value("--pipeline-depth");
      if (v == nullptr) return 2;
      pipeline_depth = std::atoi(v);
      if (pipeline_depth < 1) {
        std::cerr << "--pipeline-depth must be >= 1\n";
        return 2;
      }
    } else if (arg == "--checkpoint") {
      const char* v = take_value("--checkpoint");
      if (v == nullptr) return 2;
      checkpoint_path = v;
    } else if (arg == "--restore") {
      const char* v = take_value("--restore");
      if (v == nullptr) return 2;
      restore_path = v;
    } else if (arg == "--idle-timeout-ms") {
      const char* v = take_value("--idle-timeout-ms");
      if (v == nullptr) return 2;
      idle_timeout_ms = std::atoll(v);
    } else if (arg == "--trace-sample") {
      const char* v = take_value("--trace-sample");
      if (v == nullptr) return 2;
      trace_sample = std::atoi(v);
      if (trace_sample < 0) {
        std::cerr << "--trace-sample must be >= 0\n";
        return 2;
      }
    } else if (arg == "--trace-json") {
      const char* v = take_value("--trace-json");
      if (v == nullptr) return 2;
      trace_json_path = v;
    } else if (arg == "--no-query-sharing") {
      engine_options.query_sharing = false;
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
  if (restore_path.empty()) {
    if (positional.size() < 2) return Usage(argv[0]);
  } else if (positional.size() != 1) {
    std::cerr << "--restore takes its queries from the checkpoint; pass "
                 "only the input file\n";
    return 2;
  }
  if (port < 0 || port > 65535) {
    std::cerr << "--port out of range\n";
    return 2;
  }

  // Same restore flow as implistat_cli: recover the checkpoint's value
  // dictionaries first and seed the CSV reader, so ids line up with the
  // saved estimator states regardless of the replayed file's row order.
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

  QueryEngine engine(table->schema, engine_options);
  if (Status status = engine.SetDictionaries(table->dictionaries);
      !status.ok()) {
    std::cerr << "dictionary error: " << status << "\n";
    return 1;
  }
  if (!restore_path.empty()) {
    if (Status status = engine.Restore(restore_path); !status.ok()) {
      std::cerr << "restore error: " << status << "\n";
      return 1;
    }
    std::cerr << "restored " << engine.num_queries() << " queries at "
              << engine.tuples_seen() << " tuples\n";
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

  // Feed the local CSV rows before serving — the server's own share of
  // the stream; remote batches then continue the count.
  while (auto tuple = table->stream.Next()) engine.ObserveTuple(*tuple);

  // Arm triggers after the local feed: pre-serve rows inform the moving
  // averages only once remote ingest starts, so a subscriber never sees
  // a firing that predates the socket.
  for (const std::string& statement : trigger_statements) {
    StatusOr<std::string> name = engine.InstallTrigger(statement);
    if (!name.ok()) {
      std::cerr << name.status().message() << "\n";
      return 1;
    }
  }
  if (!trigger_statements.empty()) {
    std::cerr << "armed " << trigger_statements.size() << " trigger(s)\n";
  }

  if (trace_sample >= 0) {
    obs::Tracer::SetSampleEveryN(static_cast<uint32_t>(trace_sample));
  }

  net::ServerOptions options;
  options.bind_address = bind_address;
  options.port = static_cast<uint16_t>(port);
  options.reactors = reactors;
  options.max_pipeline_depth = static_cast<size_t>(pipeline_depth);
  options.checkpoint_path = checkpoint_path;
  options.idle_timeout_ms = idle_timeout_ms;
  net::Server server(&engine, options);
  if (Status status = server.Start(); !status.ok()) {
    std::cerr << "start error: " << status << "\n";
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // The port line is the startup handshake: scripts read it to find an
  // ephemeral port, and its presence means the socket is accepting.
  std::cout << "listening on " << bind_address << ":" << server.port()
            << std::endl;
  std::cerr << "serving " << engine.num_queries() << " queries at "
            << engine.tuples_seen() << " tuples\n";

  Status status = server.Run();
  g_server = nullptr;
  if (!trace_json_path.empty()) {
    Status dumped = WriteFileAtomic(
        trace_json_path, obs::WriteTraceJson(obs::Tracer::Snapshot()));
    if (!dumped.ok()) {
      std::cerr << "trace dump error: " << dumped << "\n";
    } else {
      std::cerr << "wrote trace to " << trace_json_path << "\n";
    }
  }
  if (!status.ok()) {
    std::cerr << "serve error: " << status << "\n";
    return 1;
  }
  std::cerr << "drained at " << engine.tuples_seen() << " tuples\n";
  return 0;
}
