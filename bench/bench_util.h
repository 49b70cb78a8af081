// Shared helpers for the reproduction benches.
//
// Every bench prints the paper table/figure it regenerates as plain rows
// on stdout. Scale knobs (all optional; a set but malformed integer knob
// exits 2 with a message naming it):
//   IMPLISTAT_TRIALS  — trials per configuration (default 3; paper: 100)
//   IMPLISTAT_FULL=1  — paper-scale sweeps (|A| up to 100000, streams up
//                       to 5.38M tuples); default is a laptop-quick run.
// Observability knobs (see README "Observability"; both are inert when
// the build has IMPLISTAT_METRICS=OFF):
//   IMPLISTAT_METRICS_EVERY — progress line to stderr every N tuples
//   IMPLISTAT_METRICS_JSON  — write a final JSON metrics snapshot here

#ifndef IMPLISTAT_BENCH_BENCH_UTIL_H_
#define IMPLISTAT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "obs/export_json.h"
#include "obs/metrics.h"
#include "util/parse_uint.h"

namespace implistat::bench {

/// The integer in environment variable `name` (ParseUint rules, so
/// `1e3` and `abc` are refused), or `def` when it is unset. A malformed
/// value exits 2.
inline uint64_t EnvUint(const char* name, uint64_t def, uint64_t min,
                        uint64_t max = UINT64_MAX) {
  const char* v = std::getenv(name);
  if (v == nullptr) return def;
  const std::optional<uint64_t> value = ParseUint(name, v, min, max);
  if (!value) std::exit(2);
  return *value;
}

inline int EnvTrials(int def = 3) {
  return static_cast<int>(EnvUint("IMPLISTAT_TRIALS", def, 1, INT32_MAX));
}

inline bool EnvFull() {
  const char* v = std::getenv("IMPLISTAT_FULL");
  return v != nullptr && std::string(v) == "1";
}

inline uint64_t EnvMetricsEvery() {
  return EnvUint("IMPLISTAT_METRICS_EVERY", 0, 0);
}

inline const char* EnvMetricsJson() {
  return std::getenv("IMPLISTAT_METRICS_JSON");
}

/// True when either observability knob is set for this run.
inline bool MetricsRequested() {
  return EnvMetricsEvery() != 0 || EnvMetricsJson() != nullptr;
}

/// Writes the global registry snapshot to $IMPLISTAT_METRICS_JSON if set.
/// Call after the workload (and after a final progress Report/Finish so
/// the gauges are fresh).
inline void MaybeWriteMetricsJson() {
  const char* path = EnvMetricsJson();
  if (path == nullptr) return;
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s for metrics JSON\n", path);
    return;
  }
  file << obs::WriteMetricsJson(obs::MetricsRegistry::Global().Snapshot());
  std::fprintf(stderr, "[implistat] metrics snapshot -> %s%s\n", path,
               obs::kMetricsEnabled ? "" : " (IMPLISTAT_METRICS=OFF: empty)");
}

struct MeanStd {
  double mean = 0;
  double stddev = 0;
};

inline MeanStd Summarize(const std::vector<double>& xs) {
  MeanStd out;
  if (xs.empty()) return out;
  for (double x : xs) out.mean += x;
  out.mean /= static_cast<double>(xs.size());
  double var = 0;
  for (double x : xs) var += (x - out.mean) * (x - out.mean);
  out.stddev = std::sqrt(var / static_cast<double>(xs.size()));
  return out;
}

/// The upper median (the middle element; for an even count, the larger
/// of the two middle ones). `xs` must not be empty.
inline double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// CMAKE_BUILD_TYPE of this build, for the headers of results files.
inline const char* BuildType() {
#ifdef IMPLISTAT_BUILD_TYPE
  return IMPLISTAT_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// Opens a results file's JSON object with the keys every results file
/// shares: the bench's name, this host's CPU count, the build type and
/// the number of trials (timed repetitions that each reported figure
/// summarizes). The caller writes its own keys and closes the object.
inline void WriteResultsHeader(std::ostream& json, const char* bench,
                               int trials) {
  json << "{\n"
       << "  \"bench\": \"" << bench << "\",\n"
       << "  \"host_cpus\": " << std::thread::hardware_concurrency() << ",\n"
       << "  \"build_type\": \"" << BuildType() << "\",\n"
       << "  \"trials\": " << trials << ",\n";
}

inline double RelativeError(double actual, double measured) {
  if (actual == 0) return measured == 0 ? 0.0 : 1.0;
  return std::abs(actual - measured) / actual;
}

inline void PrintHeaderBanner(const char* what, const char* config) {
  std::printf("== %s ==\n", what);
  std::printf("-- %s\n", config);
}

}  // namespace implistat::bench

#endif  // IMPLISTAT_BENCH_BENCH_UTIL_H_
