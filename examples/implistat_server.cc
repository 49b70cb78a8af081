// implistat_server: serve implication queries over a socket, as an edge
// or as the aggregator of a fleet of edges.
//
//   implistat_server [options] <file.csv|-> "QUERY" ["QUERY" ...]
//   implistat_server [options] --restore PATH <file.csv|->
//   implistat_server [options] --peer HOST:PORT [--peer ...]
//       <file.csv|-> "QUERY" ["QUERY" ...]
//
// Loads a CSV (dictionary-coding its values), registers the queries, and
// serves the wire protocol (src/net/wire.h): remote OBSERVE_BATCH ingest,
// QUERY readouts with error bars, SNAPSHOT/MERGE aggregation, METRICS,
// CHECKPOINT and graceful SHUTDOWN. SIGTERM/SIGINT drain cleanly; with
// --checkpoint they leave a restorable engine checkpoint behind. See
// README "Running as a service".
//
// With --peer the server is an aggregator (src/cluster/): it pulls every
// peer's state with SNAPSHOT_DELTA on its own schedule, with per-RPC
// deadlines and jittered backoff, and serves the replace-then-refold
// aggregate. The CSV is usually header-only; any body rows become the
// aggregator's own base contribution. A peer that stays dark for
// --stale-after polls goes STALE: it leaves the fold and every QUERY
// response names it in its warnings until it returns. Folds are injected
// into the serving loop (Server::InjectTask), so the engine keeps its
// one-thread discipline, and the aggregate's own SNAPSHOT ships it
// upward — point another aggregator at this one to build an edge →
// mid-tier → root hierarchy. See README "Running a cluster".

#include <csignal>
#include <iostream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cli_common.h"
#include "cluster/supervisor.h"
#include "net/server.h"
#include "obs/trace.h"

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
      << "  --trigger FILE        install CREATE TRIGGER statements (';'-\n"
      << "                        separated) before serving; repeatable\n"
      << "  --trigger-expr STR    one CREATE TRIGGER statement inline;\n"
      << "                        repeatable\n\n"
      << "aggregator options (no --restore):\n"
      << "  --peer HOST:PORT      an edge server to supervise; repeatable\n"
      << "  --poll-interval-ms N  gap between pulls per peer (default 1000)\n"
      << "  --rpc-deadline-ms N   per-RPC deadline (default 2000)\n"
      << "  --connect-timeout-ms N\n"
      << "                        TCP connect timeout (default 2000)\n"
      << "  --stale-after N       consecutive failures before a peer is\n"
      << "                        STALE and excluded (default 3)\n";
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
  std::vector<cluster::PeerConfig> peers;
  cluster::SupervisorOptions supervisor_options;
  std::vector<std::string> positional;
  examples::CommandLine flags(argc, argv);
  while (flags.Next()) {
    const std::string_view arg = flags.arg();
    if (arg == "--port") {
      if (!flags.Uint(&port, 0, 65535)) return 2;
    } else if (arg == "--bind") {
      if (!flags.String(&bind_address)) return 2;
    } else if (arg == "--reactors") {
      if (!flags.Uint(&reactors, 1)) return 2;
    } else if (arg == "--pipeline-depth") {
      if (!flags.Uint(&pipeline_depth, 1)) return 2;
    } else if (arg == "--checkpoint") {
      if (!flags.String(&checkpoint_path)) return 2;
    } else if (arg == "--restore") {
      if (!flags.String(&restore_path)) return 2;
    } else if (arg == "--idle-timeout-ms") {
      if (!flags.Uint(&idle_timeout_ms, 0)) return 2;
    } else if (arg == "--trace-sample") {
      if (!flags.Uint(&trace_sample, 0)) return 2;
    } else if (arg == "--trace-json") {
      if (!flags.String(&trace_json_path)) return 2;
    } else if (flags.IsTrigger()) {
      if (int code = flags.Triggers(&trigger_statements); code != 0) {
        return code;
      }
    } else if (arg == "--peer") {
      std::string spec;
      if (!flags.String(&spec)) return 2;
      auto parsed = cluster::ParsePeerSpec(spec);
      if (!parsed.ok()) {
        std::cerr << "bad --peer: " << parsed.status() << "\n";
        return 2;
      }
      peers.push_back(std::move(parsed).value());
    } else if (arg == "--poll-interval-ms") {
      if (!flags.Uint(&supervisor_options.poll_interval_ms, 1)) return 2;
    } else if (arg == "--rpc-deadline-ms") {
      if (!flags.Uint(&supervisor_options.rpc_deadline_ms, 1)) return 2;
    } else if (arg == "--connect-timeout-ms") {
      if (!flags.Uint(&supervisor_options.connect_timeout_ms, 1)) return 2;
    } else if (arg == "--stale-after") {
      if (!flags.Uint(&supervisor_options.stale_after_failures, 1)) return 2;
    } else if (arg.starts_with("--")) {
      std::cerr << "unknown option " << arg << "\n";
      return Usage(argv[0]);
    } else {
      positional.emplace_back(arg);
    }
  }
  if (restore_path.empty()) {
    if (positional.size() < 2) return Usage(argv[0]);
  } else if (!peers.empty()) {
    // A restored aggregate already holds its peers' states; Init() would
    // fold them in a second time as the base contribution.
    std::cerr << "--restore cannot be combined with --peer\n";
    return 2;
  } else if (positional.size() != 1) {
    std::cerr << "--restore takes its queries from the checkpoint; pass "
                 "only the input file\n";
    return 2;
  }

  std::optional<examples::LoadedEngine> loaded = examples::LoadEngine(
      positional[0], restore_path,
      std::span<const std::string>(positional).subspan(1));
  if (!loaded) return 1;
  CsvTable& table = loaded->table;
  QueryEngine& engine = *loaded->engine;

  // Feed the local CSV rows before serving — the server's own share of
  // the stream; remote batches then continue the count.
  while (auto tuple = table.stream.Next()) engine.ObserveTuple(*tuple);

  // An aggregator captures those rows as its base contribution. The
  // supervisor polls peers on its own thread, but every fold is injected
  // into the serving loop so only that thread touches the engine once
  // Run() starts; server_ptr is set before Start() below.
  net::Server* server_ptr = nullptr;
  std::unique_ptr<cluster::AggregatorSupervisor> supervisor;
  if (!peers.empty()) {
    supervisor = std::make_unique<cluster::AggregatorSupervisor>(
        &engine, std::move(peers), supervisor_options,
        [&server_ptr](std::function<void()> task) {
          server_ptr->InjectTask(std::move(task));
        });
    if (Status status = supervisor->Init(); !status.ok()) {
      std::cerr << "supervisor error: " << status << "\n";
      return 1;
    }
  }

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
  if (supervisor != nullptr) {
    options.query_warnings = [&supervisor] {
      return supervisor->QueryWarnings();
    };
  }
  net::Server server(&engine, options);
  if (Status status = server.Start(); !status.ok()) {
    std::cerr << "start error: " << status << "\n";
    return 1;
  }
  g_server = &server;
  server_ptr = &server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  // The port line is the startup handshake: scripts read it to find an
  // ephemeral port, and its presence means the socket is accepting.
  std::cout << "listening on " << bind_address << ":" << server.port()
            << std::endl;
  std::cerr << "serving " << engine.num_queries() << " queries at "
            << engine.tuples_seen() << " tuples\n";

  if (supervisor != nullptr) {
    std::cerr << "aggregating from " << supervisor->PeerStatuses().size()
              << " peers\n";
    supervisor->Start();
  }
  Status status = server.Run();
  g_server = nullptr;
  if (supervisor != nullptr) supervisor->Stop();
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
