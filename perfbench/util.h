// Small helpers shared by the benchmark's translation units: clocks,
// order statistics, per-thread CPU accounting read from /proc, and the
// metric sink the result line is printed from.

#ifndef IMPLISTAT_PERFBENCH_UTIL_H_
#define IMPLISTAT_PERFBENCH_UTIL_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC nanoseconds (the clock the library's spans use).
uint64_t NowNs();

/// Sleeps until `deadline_ns` (CLOCK_MONOTONIC), sleeping coarsely and
/// spinning the last stretch so open-loop schedules keep µs accuracy.
void SleepUntilNs(uint64_t deadline_ns);

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 for an
/// empty sample.
double Percentile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Kernel thread id of the caller.
int CurrentTid();
/// Every thread of this process.
std::vector<int> ProcessThreads();
/// Nanoseconds `tid` has spent running on a CPU (/proc schedstat).
uint64_t ThreadCpuNs(int tid);

/// Peak resident set of this process, in MB.
double PeakRssMb();

/// Cumulative CPU time the hypervisor took from this machine's CPUs
/// (steal) and all CPU time, in clock ticks (/proc/stat).
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks MachineCpuTicks();

/// CPUs the calling thread may run on, ascending.
std::vector<int> AllowedCpus();

/// Pins the calling thread to `cpu`; threads it creates afterwards
/// inherit the pin. False on failure.
bool PinTo(int cpu);

/// Times a fixed ~1 ms reference loop on each of `cpus` and leaves the
/// calling thread pinned to the CPU where it ran fastest: on a shared host
/// each vCPU slows down in phases of its own. Returns that CPU, or -1 when
/// no pin succeeded.
int PinToFastestCpu(const std::vector<int>& cpus);

/// Threads of this process that may run on some CPU other than `cpu`.
std::vector<int> ThreadsOffCpu(int cpu);

/// Value of one Prometheus counter in the global registry (summed over
/// labels); 0 when it was never registered.
uint64_t CounterValue(const std::string& name);

/// One named metric with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Ordered name -> metric map plus free-form provenance fields.
struct Report {
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> provenance;  // printed to stderr

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void Note(const std::string& key, const std::string& value) {
    provenance[key] = value;
  }
  void Note(const std::string& key, double value);
};

/// Failure counter shared by everything a run attempts.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Records a verification failure (printed to stderr, fails the run).
void VerifyFail(const std::string& what);
bool VerifyPassed();

}  // namespace perfbench

#endif  // IMPLISTAT_PERFBENCH_UTIL_H_
