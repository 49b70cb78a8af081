// implistat_client: command-line client for implistat_server.
//
//   implistat_client --port P [--host H] <command> [args]
//
// commands:
//   ping                      liveness round trip
//   observe <file.csv|->      ship CSV rows (header skipped) as
//                             OBSERVE_BATCH value batches
//   query [id ...]            estimates + error bars (all queries when
//                             no ids given)
//   snapshot <id> <out>       save query <id>'s estimator state to <out>
//   merge <id> <snapshot>     fold a saved snapshot into query <id>
//   metrics                   print the server's Prometheus metrics
//   trace [out.json]          pull the server's recent spans as Chrome
//                             trace_event JSON (stdout or a file; load
//                             it in Perfetto / chrome://tracing)
//   checkpoint                ask the server to write its checkpoint
//   shutdown                  graceful server drain
//   subscribe [name ...]      install --trigger/--trigger-expr rules,
//                             subscribe to firings (all triggers when no
//                             names given) and print each TRIGGER_FIRED
//                             push as one JSON object per line
//
// See README "Running as a service" for the two-terminal walkthrough and
// "Triggers & subscriptions" for the push protocol.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cli_common.h"
#include "net/client.h"

namespace {

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --port P [--host H] [--pipeline N] "
               "ping|observe|query|snapshot|merge|metrics|trace|checkpoint|"
               "shutdown|subscribe [args]\n"
            << "  --pipeline N        keep up to N OBSERVE batches in flight\n"
            << "                      instead of blocking per batch (default\n"
            << "                      1; stay at or under the server's\n"
            << "                      --pipeline-depth)\n"
            << "  --trigger FILE      CREATE TRIGGER statements (';'-\n"
            << "                      separated) to install with subscribe;\n"
            << "                      repeatable\n"
            << "  --trigger-expr STR  one CREATE TRIGGER statement inline;\n"
            << "                      repeatable\n"
            << "  --count N           exit after N firings (subscribe only;\n"
            << "                      default 0 = run until killed)\n";
  return 2;
}

/// Renders a string as a JSON string literal (quotes, backslashes and
/// control characters escaped) — enough for trigger names.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(field);
      field.clear();
    } else if (c != '\r') {
      field.push_back(c);
    }
  }
  fields.push_back(field);
  return fields;
}

/// A query id argument (query, snapshot, merge), parsed strictly.
bool ParseQueryId(const std::string& text, uint32_t* id) {
  const std::optional<uint64_t> value = implistat::ParseUint(
      "query id", text, 0, std::numeric_limits<uint32_t>::max());
  if (value) *id = static_cast<uint32_t>(*value);
  return value.has_value();
}

int Observe(implistat::net::Client& client, std::istream& in,
            size_t pipeline) {
  using implistat::net::MsgType;
  using implistat::net::ObserveBatchRequest;
  using implistat::net::ObserveEncoding;
  std::string line;
  if (!std::getline(in, line)) {
    std::cerr << "empty CSV input (no header)\n";
    return 1;
  }
  const size_t width = SplitCsvLine(line).size();
  constexpr size_t kRowsPerBatch = 1024;
  ObserveBatchRequest batch;
  batch.encoding = ObserveEncoding::kValues;
  batch.width = static_cast<uint32_t>(width);
  uint64_t total = 0;
  uint64_t rows = 0;
  // Responses come back in request order, so the last Await's total is
  // the running server count regardless of window size.
  auto await_one = [&]() -> bool {
    auto body = client.Await();
    if (!body.ok()) {
      std::cerr << "observe error: " << body.status() << "\n";
      return false;
    }
    auto seen = implistat::net::DecodeObserveBatchResponse(*body);
    if (!seen.ok()) {
      std::cerr << "observe error: " << seen.status() << "\n";
      return false;
    }
    total = *seen;
    return true;
  };
  auto flush = [&]() -> bool {
    if (batch.values.empty()) return true;
    if (pipeline <= 1) {
      auto seen = client.ObserveBatch(batch);
      if (!seen.ok()) {
        std::cerr << "observe error: " << seen.status() << "\n";
        return false;
      }
      total = *seen;
    } else {
      if (client.in_flight() >= pipeline && !await_one()) return false;
      implistat::Status sent =
          client.Submit(MsgType::kObserveBatch,
                        implistat::net::EncodeObserveBatchRequest(batch));
      if (!sent.ok()) {
        std::cerr << "observe error: " << sent << "\n";
        return false;
      }
    }
    batch.values.clear();
    return true;
  };
  size_t row_no = 1;
  while (std::getline(in, line)) {
    ++row_no;
    if (line.empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != width) {
      std::cerr << "row " << row_no << " has " << fields.size()
                << " fields, expected " << width << "\n";
      return 1;
    }
    for (std::string& field : fields) batch.values.push_back(std::move(field));
    ++rows;
    if (batch.num_tuples() >= kRowsPerBatch && !flush()) return 1;
  }
  if (!flush()) return 1;
  while (client.in_flight() > 0) {
    if (!await_one()) return 1;
  }
  std::cout << "shipped " << rows << " tuples; server total " << total
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace implistat;

  std::string host = "127.0.0.1";
  int port = 0;
  int pipeline = 1;
  uint64_t count = 0;
  std::vector<std::string> trigger_statements;
  std::vector<std::string> positional;
  examples::CommandLine flags(argc, argv);
  while (flags.Next()) {
    const std::string_view arg = flags.arg();
    if (arg == "--host") {
      if (!flags.String(&host)) return 2;
    } else if (arg == "--port") {
      if (!flags.Uint(&port, 1, 65535)) return 2;
    } else if (arg == "--pipeline") {
      if (!flags.Uint(&pipeline, 1)) return 2;
    } else if (flags.IsTrigger()) {
      if (int code = flags.Triggers(&trigger_statements); code != 0) {
        return code;
      }
    } else if (arg == "--count") {
      if (!flags.Uint(&count, 0)) return 2;
    } else if (arg.starts_with("--")) {
      std::cerr << "unknown option " << arg << "\n";
      return Usage(argv[0]);
    } else {
      positional.emplace_back(arg);
    }
  }
  if (positional.empty() || port == 0) return Usage(argv[0]);
  const std::string& command = positional[0];

  net::ClientOptions client_options;
  client_options.max_in_flight = static_cast<size_t>(pipeline);
  StatusOr<net::Client> client = net::Client::Connect(
      host, static_cast<uint16_t>(port), client_options);
  if (!client.ok()) {
    std::cerr << "connect error: " << client.status() << "\n";
    return 1;
  }

  if (command == "ping") {
    if (Status status = client->Ping(); !status.ok()) {
      std::cerr << "ping error: " << status << "\n";
      return 1;
    }
    std::cout << "pong\n";
    return 0;
  }
  if (command == "observe") {
    if (positional.size() != 2) return Usage(argv[0]);
    const size_t window = static_cast<size_t>(pipeline);
    if (positional[1] == "-") return Observe(*client, std::cin, window);
    std::ifstream file(positional[1]);
    if (!file) {
      std::cerr << "cannot open " << positional[1] << "\n";
      return 1;
    }
    return Observe(*client, file, window);
  }
  if (command == "query") {
    std::vector<uint32_t> ids;
    for (size_t i = 1; i < positional.size(); ++i) {
      uint32_t id;
      if (!ParseQueryId(positional[i], &id)) return 2;
      ids.push_back(id);
    }
    auto response = client->Query(ids);
    if (!response.ok()) {
      std::cerr << "query error: " << response.status() << "\n";
      return 1;
    }
    std::cout << "# " << response->tuples_seen << " tuples\n";
    for (const auto& warning : response->warnings) {
      std::cout << "# warning: " << warning << "\n";
    }
    for (const auto& result : response->results) {
      std::cout << "query " << result.id << " [" << result.estimator_name
                << "]: " << result.estimate;
      if (result.std_error >= 0) std::cout << " +/- " << result.std_error;
      std::cout << "   (memory: " << result.memory_bytes << " bytes)";
      if (!result.label.empty()) std::cout << "  " << result.label;
      std::cout << "\n";
    }
    return 0;
  }
  if (command == "snapshot") {
    if (positional.size() != 3) return Usage(argv[0]);
    uint32_t id;
    if (!ParseQueryId(positional[1], &id)) return 2;
    auto snapshot = client->Snapshot(id);
    if (!snapshot.ok()) {
      std::cerr << "snapshot error: " << snapshot.status() << "\n";
      return 1;
    }
    if (Status status = WriteFileAtomic(positional[2], snapshot->state);
        !status.ok()) {
      std::cerr << "write error: " << status << "\n";
      return 1;
    }
    std::cout << "wrote " << snapshot->state.size() << " bytes to "
              << positional[2] << " (epoch " << snapshot->epoch << ")\n";
    return 0;
  }
  if (command == "merge") {
    if (positional.size() != 3) return Usage(argv[0]);
    uint32_t id;
    if (!ParseQueryId(positional[1], &id)) return 2;
    auto bytes = ReadFileToString(positional[2]);
    if (!bytes.ok()) {
      std::cerr << "read error: " << bytes.status() << "\n";
      return 1;
    }
    Status status = client->Merge(id, *bytes);
    if (!status.ok()) {
      std::cerr << "merge error: " << status << "\n";
      return 1;
    }
    std::cout << "merged\n";
    return 0;
  }
  if (command == "metrics") {
    auto text = client->Metrics();
    if (!text.ok()) {
      std::cerr << "metrics error: " << text.status() << "\n";
      return 1;
    }
    std::cout << *text;
    return 0;
  }
  if (command == "trace") {
    if (positional.size() > 2) return Usage(argv[0]);
    auto json = client->TraceDump();
    if (!json.ok()) {
      std::cerr << "trace error: " << json.status() << "\n";
      return 1;
    }
    if (positional.size() == 2) {
      if (Status status = WriteFileAtomic(positional[1], *json);
          !status.ok()) {
        std::cerr << "write error: " << status << "\n";
        return 1;
      }
      std::cout << "wrote " << json->size() << " bytes to " << positional[1]
                << "\n";
    } else {
      std::cout << *json << "\n";
    }
    return 0;
  }
  if (command == "checkpoint") {
    auto path = client->Checkpoint();
    if (!path.ok()) {
      std::cerr << "checkpoint error: " << path.status() << "\n";
      return 1;
    }
    std::cout << "checkpoint written to " << *path << "\n";
    return 0;
  }
  if (command == "shutdown") {
    if (Status status = client->Shutdown(); !status.ok()) {
      std::cerr << "shutdown error: " << status << "\n";
      return 1;
    }
    std::cout << "server draining\n";
    return 0;
  }
  if (command == "subscribe") {
    net::SubscribeRequest request;
    request.statements = std::move(trigger_statements);
    for (size_t i = 1; i < positional.size(); ++i) {
      request.triggers.push_back(std::move(positional[i]));
    }
    uint64_t fired = 0;
    client->set_on_trigger([&](const net::TriggerFired& firing,
                               const obs::SpanContext&) {
      std::cout << "{\"trigger\":" << JsonString(firing.trigger)
                << ",\"epoch\":" << firing.epoch
                << ",\"value\":" << firing.value << "}" << std::endl;
      ++fired;
    });
    auto subscribed = client->Subscribe(request);
    if (!subscribed.ok()) {
      std::cerr << "subscribe error: " << subscribed.status() << "\n";
      return 1;
    }
    std::cerr << "subscribed: installed " << subscribed->installed
              << " trigger(s), matching " << subscribed->matched << "\n";
    while (count == 0 || fired < count) {
      if (Status status = client->WaitForTrigger(); !status.ok()) {
        std::cerr << "subscribe error: " << status << "\n";
        return 1;
      }
    }
    return 0;
  }
  std::cerr << "unknown command " << command << "\n";
  return Usage(argv[0]);
}
