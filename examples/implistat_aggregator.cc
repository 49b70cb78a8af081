// implistat_aggregator: supervise a fleet of edge servers and serve
// their folded aggregate.
//
//   implistat_aggregator [options] --peer HOST:PORT [--peer ...]
//       <file.csv|-> "QUERY" ["QUERY" ...]
//
// Registers the queries over the CSV's schema (the CSV is usually
// header-only — the aggregate's data comes from the peers; any body rows
// become a local base contribution), then supervises the configured
// edges: each peer is polled for SNAPSHOT state on its own schedule with
// per-RPC deadlines, failures back off exponentially with jitter, and a
// peer that stays dark long enough goes STALE — dropped from the fold
// and reported in every QUERY response's warnings until it returns.
// The aggregate is rebuilt by replace-then-refold (src/cluster/), so
// re-shipped snapshots never double count and restarted edges converge
// back to the single-process answer. By default the pulls
// ship SNAPSHOT_DELTA patches against the last acked epoch (a fraction
// of the full snapshot's bytes; --no-deltas reverts to full pulls), and
// any refusal resyncs with one full snapshot automatically.
//
// While supervising, the same process serves the wire protocol: QUERY
// answers over the current fold, METRICS exposes per-peer health
// (implistat_peer_*) and fold counters (implistat_cluster_*), and
// SNAPSHOT ships the folded state upward — point another aggregator at
// this one to build an edge → mid-tier → root hierarchy.
//
// Folds are injected into the serving loop (Server::InjectTask), so the
// engine keeps its one-thread discipline. SIGTERM/SIGINT drain cleanly.
// See README "Running a cluster".

#include <csignal>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cluster/supervisor.h"
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
      << "usage: " << argv0
      << " [options] --peer HOST:PORT [--peer ...] <file.csv|-> \"QUERY\" "
         "...\n\n"
      << "options:\n"
      << "  --peer HOST:PORT        an edge server to supervise (repeat)\n"
      << "  --port N                TCP port to serve on (default 0 =\n"
      << "                          ephemeral; the bound port prints to\n"
      << "                          stdout)\n"
      << "  --bind ADDR             bind address (default 127.0.0.1)\n"
      << "  --checkpoint PATH       serve CHECKPOINT requests at PATH and\n"
      << "                          write a final checkpoint on shutdown\n"
      << "  --idle-timeout-ms N     drop connections idle for N ms\n"
      << "  --poll-interval-ms N    gap between snapshot pulls per peer\n"
      << "                          (default 1000)\n"
      << "  --rpc-deadline-ms N     per-RPC deadline (default 2000)\n"
      << "  --connect-timeout-ms N  TCP connect timeout (default 2000)\n"
      << "  --stale-after N         consecutive failures before a peer is\n"
      << "                          STALE and excluded (default 3)\n"
      << "  --no-deltas             pull full snapshots every round instead\n"
      << "                          of SNAPSHOT_DELTA patches\n"
      << "  --trace-sample N        record 1 in N traces (default 64;\n"
      << "                          1 = every poll/request, 0 = none)\n"
      << "  --trace-json PATH       dump recorded spans as Chrome\n"
      << "                          trace_event JSON to PATH on shutdown\n"
      << "  --no-query-sharing      dedicated estimator per query (disable\n"
      << "                          the shared synopsis store)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace implistat;

  int port = 0;
  std::string bind_address = "127.0.0.1";
  std::string checkpoint_path;
  int64_t idle_timeout_ms = 0;
  int trace_sample = -1;  // -1: keep the compiled-in default (64)
  std::string trace_json_path;
  cluster::SupervisorOptions supervisor_options;
  QueryEngineOptions engine_options;
  std::vector<cluster::PeerConfig> peers;
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
    if (arg == "--peer") {
      const char* v = take_value("--peer");
      if (v == nullptr) return 2;
      auto parsed = cluster::ParsePeerSpec(v);
      if (!parsed.ok()) {
        std::cerr << "bad --peer: " << parsed.status() << "\n";
        return 2;
      }
      peers.push_back(std::move(parsed).value());
    } else if (arg == "--port") {
      const char* v = take_value("--port");
      if (v == nullptr) return 2;
      port = std::atoi(v);
    } else if (arg == "--bind") {
      const char* v = take_value("--bind");
      if (v == nullptr) return 2;
      bind_address = v;
    } else if (arg == "--checkpoint") {
      const char* v = take_value("--checkpoint");
      if (v == nullptr) return 2;
      checkpoint_path = v;
    } else if (arg == "--idle-timeout-ms") {
      const char* v = take_value("--idle-timeout-ms");
      if (v == nullptr) return 2;
      idle_timeout_ms = std::atoll(v);
    } else if (arg == "--poll-interval-ms") {
      const char* v = take_value("--poll-interval-ms");
      if (v == nullptr) return 2;
      supervisor_options.poll_interval_ms = std::atoll(v);
    } else if (arg == "--rpc-deadline-ms") {
      const char* v = take_value("--rpc-deadline-ms");
      if (v == nullptr) return 2;
      supervisor_options.rpc_deadline_ms = std::atoll(v);
    } else if (arg == "--connect-timeout-ms") {
      const char* v = take_value("--connect-timeout-ms");
      if (v == nullptr) return 2;
      supervisor_options.connect_timeout_ms = std::atoll(v);
    } else if (arg == "--stale-after") {
      const char* v = take_value("--stale-after");
      if (v == nullptr) return 2;
      supervisor_options.stale_after_failures = std::atoi(v);
    } else if (arg == "--no-deltas") {
      supervisor_options.use_deltas = false;
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
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option " << arg << "\n";
      return Usage(argv[0]);
    } else {
      positional.push_back(std::move(arg));
    }
  }
  if (positional.size() < 2) return Usage(argv[0]);
  if (peers.empty()) {
    std::cerr << "at least one --peer is required\n";
    return Usage(argv[0]);
  }
  if (port < 0 || port > 65535) {
    std::cerr << "--port out of range\n";
    return 2;
  }

  StatusOr<CsvTable> table = [&]() -> StatusOr<CsvTable> {
    if (positional[0] == "-") return ReadCsv(std::cin);
    std::ifstream file(positional[0]);
    if (!file) return Status::IOError("cannot open " + positional[0]);
    return ReadCsv(file);
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

  // Any body rows in the CSV become the aggregator's own base
  // contribution; a header-only file starts the fold from nothing.
  while (auto tuple = table->stream.Next()) engine.ObserveTuple(*tuple);

  // The supervisor polls peers on its own thread, but every fold is
  // injected into the serving loop so only that thread touches the
  // engine once Run() starts. server_ptr is set before Start() below.
  net::Server* server_ptr = nullptr;
  cluster::AggregatorSupervisor supervisor(
      &engine, std::move(peers), supervisor_options,
      [&server_ptr](std::function<void()> task) {
        server_ptr->InjectTask(std::move(task));
      });
  if (Status status = supervisor.Init(); !status.ok()) {
    std::cerr << "supervisor error: " << status << "\n";
    return 1;
  }

  if (trace_sample >= 0) {
    obs::Tracer::SetSampleEveryN(static_cast<uint32_t>(trace_sample));
  }

  net::ServerOptions options;
  options.bind_address = bind_address;
  options.port = static_cast<uint16_t>(port);
  options.checkpoint_path = checkpoint_path;
  options.idle_timeout_ms = idle_timeout_ms;
  options.query_warnings = [&supervisor] {
    return supervisor.QueryWarnings();
  };
  net::Server server(&engine, options);
  if (Status status = server.Start(); !status.ok()) {
    std::cerr << "start error: " << status << "\n";
    return 1;
  }
  g_server = &server;
  server_ptr = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::cout << "listening on " << bind_address << ":" << server.port()
            << std::endl;
  std::cerr << "aggregating " << engine.num_queries() << " queries from "
            << supervisor.PeerStatuses().size() << " peers\n";

  supervisor.Start();
  Status status = server.Run();
  g_server = nullptr;
  supervisor.Stop();
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
  std::cerr << "drained at " << engine.tuples_seen() << " tuples ("
            << supervisor.folds_completed() << " folds)\n";
  return 0;
}
