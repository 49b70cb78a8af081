// make_dataset: export the synthetic workloads as CSV.
//
//   make_dataset dataset-one [cardinality] [implied] [c] [seed]
//   make_dataset netflow     [tuples] [seed]
//   make_dataset olap        [tuples] [seed]
//
// Writes CSV to stdout (header + rows, value ids rendered numerically),
// ready for implistat_cli or any other consumer. For dataset-one the
// imposed ground truth is printed to stderr.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "cli_common.h"
#include "datagen/dataset_one.h"
#include "datagen/netflow_gen.h"
#include "datagen/olap_gen.h"
#include "stream/csv_io.h"

namespace {

// Positional argument `index`, or `fallback` when the command line ends
// before it. A malformed value exits 2 after ParseUint names it.
uint64_t Arg(int argc, char** argv, int index, const char* name,
             uint64_t fallback, uint64_t min = 0,
             uint64_t max = std::numeric_limits<uint64_t>::max()) {
  if (index >= argc) return fallback;
  const std::optional<uint64_t> value =
      implistat::ParseUint(name, argv[index], min, max);
  if (!value) std::exit(2);
  return *value;
}

int EmitBounded(implistat::TupleStream& stream, uint64_t tuples) {
  using namespace implistat;
  const Schema& schema = stream.schema();
  for (int i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) std::cout << ',';
    std::cout << schema.attribute(i).name;
  }
  std::cout << '\n';
  for (uint64_t n = 0; n < tuples; ++n) {
    auto tuple = stream.Next();
    if (!tuple) break;
    for (size_t i = 0; i < tuple->size(); ++i) {
      if (i > 0) std::cout << ',';
      std::cout << (*tuple)[i];
    }
    std::cout << '\n';
  }
  return std::cout.good() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace implistat;
  if (argc < 2) {
    std::cerr << "usage: " << argv[0]
              << " dataset-one|netflow|olap [args...]\n";
    return 2;
  }
  std::string kind = argv[1];
  if (kind == "dataset-one") {
    DatasetOneParams params;
    params.cardinality_a = Arg(argc, argv, 2, "cardinality", 1000);
    params.implied_count = Arg(argc, argv, 3, "implied",
                               params.cardinality_a / 2, 0,
                               params.cardinality_a);
    params.c = static_cast<uint32_t>(
        Arg(argc, argv, 4, "c", 1, 1, std::numeric_limits<uint32_t>::max()));
    params.seed = Arg(argc, argv, 5, "seed", 0);
    DatasetOne data = GenerateDatasetOne(params);
    std::cerr << "ground truth: S=" << data.true_implication_count
              << " ~S=" << data.true_non_implication_count
              << " F0_sup=" << data.true_supported_distinct
              << "  (conditions: K=" << data.conditions.max_multiplicity
              << " sigma=" << data.conditions.min_support
              << " gamma=" << data.conditions.min_top_confidence
              << " c=" << data.conditions.confidence_c << ")\n";
    if (Status s = WriteCsv(data.stream, nullptr, std::cout); !s.ok()) {
      std::cerr << "write failed: " << s << "\n";
      return 1;
    }
    return 0;
  }
  if (kind == "netflow") {
    NetflowGenParams params;
    params.seed = Arg(argc, argv, 3, "seed", 0);
    NetflowGenerator gen(params);
    return EmitBounded(gen, Arg(argc, argv, 2, "tuples", 100000));
  }
  if (kind == "olap") {
    OlapGenParams params;
    params.seed = Arg(argc, argv, 3, "seed", 0);
    OlapGenerator gen(params);
    return EmitBounded(gen, Arg(argc, argv, 2, "tuples", 100000));
  }
  std::cerr << "unknown dataset kind: " << kind << "\n";
  return 2;
}
