// The three workloads and the per-layer timings taken from outside the
// library. Each run prints every end-to-end metric (measured run) or
// every per-layer metric (traced run) of BENCHMARK.json.

#ifndef IMPLISTAT_PERFBENCH_WORKLOADS_H_
#define IMPLISTAT_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// Threads and connections a workload puts in play (the load-shape
/// guard refuses a run whose runnable threads exceed the CPUs).
struct LoadShape {
  int generator_threads = 0;
  int generator_connections = 0;
  int server_reactors = 0;
  /// Server threads that can be runnable at once.
  int server_threads_runnable = 0;
  /// Every thread the process has while a pass is timed, idle ones too.
  int threads = 0;
  int runnable() const { return generator_threads + server_threads_runnable; }
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// The CPUs a pass may be pinned to (each pass pins every thread it
  /// starts to one of them), and the shape the threads must stay within.
  std::vector<int> cpus;
  LoadShape shape;
};

struct RunResult {
  Report report;
  OpCounts ops;
};

/// False for an unknown workload name.
bool WorkloadShape(const std::string& name, LoadShape* shape);
RunResult RunWorkload(const RunOptions& options);

// --- per-layer timings (ledger.cc) ---

/// Direct, in-process timings of the public functions under each layer,
/// on the workload's own batches and on the twin engine's synopses.
void DirectLayerTimings(const StreamPool& pool, is::QueryEngine& twin,
                        const Registrar& registrar, Report* out);

/// Span-derived layer costs (writer handoff wait, apply, encode) from a
/// traced phase.
void SpanLayerTimings(const std::vector<is::obs::SpanRecord>& spans,
                      Report* out);

}  // namespace perfbench

#endif  // IMPLISTAT_PERFBENCH_WORKLOADS_H_
