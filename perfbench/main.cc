// perfbench: the serving benchmark's binary.
//
//   perfbench --workload <edge_ingest|tenant_dashboard|fleet_delta>
//             --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, then runs passes against
// real servers on loopback until their timed phases add up to the given
// seconds: each pass sets the workload up afresh and streams the input
// pool once. Then it verifies the served state against in-process twins.
// Human-readable provenance goes to stderr and a provenance JSON line to
// stdout; the last stdout line is the result:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (the traced run). Exits 1 when verification fails, 2 on bad arguments
// or a load shape the host cannot run.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "workloads.h"

namespace {

using perfbench::LoadShape;
using perfbench::Report;
using perfbench::RunOptions;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <edge_ingest|tenant_dashboard|"
               "fleet_delta> --seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  options.workload.clear();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else {
      return Usage();
    }
  }
  LoadShape shape;
  if (argc % 2 != 1 || !perfbench::WorkloadShape(options.workload, &shape) ||
      !(options.seconds > 0)) {
    return Usage();
  }

  // Load-shape guard: generator plus server threads that can run at once
  // must not exceed the CPUs the process may use.
  const std::vector<int> cpus = perfbench::AllowedCpus();
  if (cpus.empty() || shape.runnable() > static_cast<int>(cpus.size())) {
    std::fprintf(stderr,
                 "refusing %s: %d runnable threads (%d generator + %d server) "
                 "exceed the %zu available CPUs\n",
                 options.workload.c_str(), shape.runnable(),
                 shape.generator_threads, shape.server_threads_runnable,
                 cpus.size());
    return 2;
  }
  // Each pass then serializes that pipeline on one CPU: before it starts
  // any thread, the pass pins itself to the allowed CPU where a reference
  // loop runs fastest at that moment, every thread it starts inherits the
  // pin, and it checks that no thread runs elsewhere and none beyond the
  // shape exists. On the 4-vCPU VM this was tuned on, spreading the stages
  // over CPUs of their own made every hand-off a cross-CPU wake-up whose
  // latency swings with the hypervisor: fleet_delta poll p50 rose from ~42
  // to ~84 ms and tenant_dashboard QUERY p99 from ~3.7 to ~14 ms, with
  // quartile spreads of 0.15-0.30 over four seeds. End-to-end figures are
  // therefore the sum of the stages' CPU costs; overlap between stages is
  // not measured.
  options.cpus = cpus;
  options.shape = shape;
  // Span sampling stays off while end-to-end metrics are measured; the
  // traced run switches it on for its second half only.
  implistat::obs::Tracer::SetSampleEveryN(0);
  const perfbench::CpuTicks ticks_before = perfbench::MachineCpuTicks();
  perfbench::RunResult result = perfbench::RunWorkload(options);
  const perfbench::CpuTicks ticks_after = perfbench::MachineCpuTicks();
  Report& report = result.report;
  report.Note("host_steal_frac",
              static_cast<double>(ticks_after.steal - ticks_before.steal) /
                  static_cast<double>(std::max<uint64_t>(
                      ticks_after.total - ticks_before.total, 1)));

  const char* source_id = std::getenv("PERFBENCH_SOURCE_ID");
  report.Note("workload", options.workload);
  report.Note("seed", static_cast<double>(options.seed));
  report.Note("run_seconds", options.seconds);
  report.Note("trace", options.trace ? "1" : "0");
  report.Note("nproc", static_cast<double>(cpus.size()));
  report.Note("generator_threads", static_cast<double>(shape.generator_threads));
  report.Note("generator_connections",
              static_cast<double>(shape.generator_connections));
  report.Note("server_reactors", static_cast<double>(shape.server_reactors));
  report.Note("runnable_threads", static_cast<double>(shape.runnable()));
  report.Note("process_threads", static_cast<double>(shape.threads));
  report.Note("layout", "serialized: " + std::to_string(shape.runnable()) +
                            " runnable of " + std::to_string(shape.threads) +
                            " threads share 1 CPU, chosen per pass of " +
                            std::to_string(cpus.size()));
  report.Note("build_type", PERFBENCH_BUILD_TYPE);
  report.Note("peak_rss_mb", perfbench::PeakRssMb());
  report.Note("source", source_id != nullptr ? source_id : "unknown");

  for (auto& [name, metric] : report.metrics) {
    if (!std::isfinite(metric.value)) {
      perfbench::VerifyFail("metric " + name + " is not finite");
      metric.value = 0;
    }
  }
  const bool correct = perfbench::VerifyPassed() && result.ops.failed == 0;

  std::string provenance = "{";
  bool first = true;
  for (const auto& [key, value] : report.provenance) {
    std::fprintf(stderr, "  %-28s %s\n", key.c_str(), value.c_str());
    provenance += (first ? "" : ", ") + JsonString(key) + ": " +
                  JsonString(value);
    first = false;
  }
  provenance += "}";
  std::printf("{\"provenance\": %s}\n", provenance.c_str());

  std::string metrics = "{";
  first = true;
  for (const auto& [name, metric] : report.metrics) {
    metrics += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
               JsonNumber(metric.value) + ", \"unit\": " +
               JsonString(metric.unit) + "}";
    first = false;
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(
                  result.ops.attempted == 0 ? 1 : result.ops.attempted),
              static_cast<unsigned long long>(result.ops.failed),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
