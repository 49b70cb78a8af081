// Command-line plumbing shared by the example binaries: `--flag value`
// iteration with strict integer values (util/parse_uint.h), the
// --trigger / --trigger-expr flags, and the engine setup that
// implistat_cli and implistat_server run before they stream or serve.
//
// Header-only, so the binaries need no library of their own.

#ifndef IMPLISTAT_EXAMPLES_CLI_COMMON_H_
#define IMPLISTAT_EXAMPLES_CLI_COMMON_H_

#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cql/parser.h"
#include "query/engine.h"
#include "query/parser.h"
#include "stream/csv_io.h"
#include "util/fileio.h"
#include "util/parse_uint.h"

namespace implistat::examples {

/// Walks argv for `--flag value` options. The accessors read the value of
/// the current flag and print a message naming it when that value is
/// missing or malformed; the caller then exits 2.
class CommandLine {
 public:
  CommandLine(int argc, char** argv) : argc_(argc), argv_(argv) {}

  /// Advances to the next argument; false past the last one.
  bool Next() { return ++i_ < argc_; }
  std::string_view arg() const { return argv_[i_]; }

  /// The current flag's value, consumed.
  bool String(std::string* out) {
    const char* value = Value();
    if (value == nullptr) return false;
    *out = value;
    return true;
  }

  /// The current flag's value as an integer in [min, max] (ParseUint).
  template <typename Int>
  bool Uint(Int* out, uint64_t min,
            uint64_t max = std::numeric_limits<Int>::max()) {
    const std::string_view flag = arg();
    const char* text = Value();
    if (text == nullptr) return false;
    const std::optional<uint64_t> value = ParseUint(flag, text, min, max);
    if (!value) return false;
    *out = static_cast<Int>(*value);
    return true;
  }

  bool IsTrigger() const {
    return arg() == "--trigger" || arg() == "--trigger-expr";
  }

  /// Consumes --trigger FILE (the ';'-separated CREATE TRIGGER statements
  /// in FILE) or --trigger-expr STR, appending each statement. Returns 0,
  /// or the exit code: 2 for a missing value, 1 for an unreadable FILE.
  int Triggers(std::vector<std::string>* statements) {
    const bool from_file = arg() == "--trigger";
    const char* value = Value();
    if (value == nullptr) return 2;
    std::string text = value;
    if (from_file) {
      StatusOr<std::string> script = ReadFileToString(value);
      if (!script.ok()) {
        std::cerr << "cannot read " << value << ": " << script.status()
                  << "\n";
        return 1;
      }
      text = std::move(script).value();
    }
    for (std::string& statement : cql::SplitStatements(text)) {
      statements->push_back(std::move(statement));
    }
    return 0;
  }

 private:
  // The current flag's value, consumed; nullptr when argv ends first.
  const char* Value() {
    if (i_ + 1 >= argc_) {
      std::cerr << arg() << " needs a value\n";
      return nullptr;
    }
    return argv_[++i_];
  }

  int argc_;
  char** argv_;
  int i_ = 0;
};

/// The CSV (its rows not yet fed) and the engine built over it.
struct LoadedEngine {
  CsvTable table;
  std::unique_ptr<QueryEngine> engine;
};

/// The setup implistat_cli and implistat_server share. With a checkpoint
/// to restore, its value dictionaries seed the CSV reader first, so ids
/// line up with the saved estimator states whatever the replayed file's
/// row order. Reads `csv_path` ("-" is stdin), attaches its dictionaries
/// to a new engine so checkpoints carry them, restores the checkpoint
/// (which must hold at least one query), then registers `queries`,
/// numbered from 1 in messages. Prints the failing step and returns
/// nullopt on any error; the caller exits 1.
inline std::optional<LoadedEngine> LoadEngine(
    const std::string& csv_path, const std::string& restore_path,
    std::span<const std::string> queries) {
  std::vector<ValueDictionary> seed;
  if (!restore_path.empty()) {
    StatusOr<std::string> bytes = ReadFileToString(restore_path);
    if (!bytes.ok()) {
      std::cerr << "restore error: " << bytes.status() << "\n";
      return std::nullopt;
    }
    StatusOr<std::vector<ValueDictionary>> peeked =
        PeekCheckpointDictionaries(*bytes);
    if (!peeked.ok()) {
      std::cerr << "restore error: " << peeked.status() << "\n";
      return std::nullopt;
    }
    seed = std::move(peeked).value();
  }

  StatusOr<CsvTable> table = [&]() -> StatusOr<CsvTable> {
    if (csv_path == "-") return ReadCsv(std::cin, std::move(seed));
    std::ifstream file(csv_path);
    if (!file) return Status::IOError("cannot open " + csv_path);
    return ReadCsv(file, std::move(seed));
  }();
  if (!table.ok()) {
    std::cerr << "input error: " << table.status() << "\n";
    return std::nullopt;
  }

  auto engine = std::make_unique<QueryEngine>(table->schema);
  if (Status status = engine->SetDictionaries(table->dictionaries);
      !status.ok()) {
    std::cerr << "dictionary error: " << status << "\n";
    return std::nullopt;
  }
  if (!restore_path.empty()) {
    if (Status status = engine->Restore(restore_path); !status.ok()) {
      std::cerr << "restore error: " << status << "\n";
      return std::nullopt;
    }
    if (engine->num_queries() == 0) {
      std::cerr << "restore error: checkpoint holds no queries\n";
      return std::nullopt;
    }
    std::cerr << "restored " << engine->num_queries() << " queries at "
              << engine->tuples_seen() << " tuples from " << restore_path
              << "\n";
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    auto parsed = ParseImplicationQuery(queries[i]);
    if (!parsed.ok()) {
      std::cerr << "parse error in query " << i + 1 << ": "
                << parsed.status() << "\n";
      return std::nullopt;
    }
    auto spec = BindQuery(*parsed, table->schema, &table->dictionaries);
    if (!spec.ok()) {
      std::cerr << "bind error in query " << i + 1 << ": " << spec.status()
                << "\n";
      return std::nullopt;
    }
    auto id = engine->Register(std::move(spec).value());
    if (!id.ok()) {
      std::cerr << "register error in query " << i + 1 << ": "
                << id.status() << "\n";
      return std::nullopt;
    }
  }
  return LoadedEngine{std::move(table).value(), std::move(engine)};
}

}  // namespace implistat::examples

#endif  // IMPLISTAT_EXAMPLES_CLI_COMMON_H_
