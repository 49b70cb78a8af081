#include "util.h"

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/metrics.h"

namespace perfbench {

uint64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

void SleepUntilNs(uint64_t deadline_ns) {
  constexpr uint64_t kSpinNs = 60000;
  for (;;) {
    const uint64_t now = NowNs();
    if (now >= deadline_ns) return;
    const uint64_t left = deadline_ns - now;
    if (left > kSpinNs) {
      const uint64_t nap = left - kSpinNs;
      struct timespec ts;
      ts.tv_sec = static_cast<time_t>(nap / 1000000000ull);
      ts.tv_nsec = static_cast<long>(nap % 1000000000ull);
      nanosleep(&ts, nullptr);
    }
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t at = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(at, values.size() - 1)];
}

int CurrentTid() { return static_cast<int>(syscall(SYS_gettid)); }

std::vector<int> ProcessThreads() {
  std::vector<int> tids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return tids;
  while (struct dirent* entry = readdir(dir)) {
    if (entry->d_name[0] < '0' || entry->d_name[0] > '9') continue;
    tids.push_back(std::atoi(entry->d_name));
  }
  closedir(dir);
  std::sort(tids.begin(), tids.end());
  return tids;
}

uint64_t ThreadCpuNs(int tid) {
  std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/schedstat");
  uint64_t run_ns = 0;
  in >> run_ns;
  return run_ns;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024;
  }
  return 0;
}

CpuTicks MachineCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;  // aggregate "cpu" line: user nice system idle iowait irq
                // softirq steal ...
  CpuTicks ticks;
  for (int field = 0; field < 8 && in; ++field) {
    uint64_t value = 0;
    in >> value;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  return cpus;
}

bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

namespace {

volatile uint64_t g_reference_sink = 0;

/// Dependent loads from a 256 KB table (L2-resident) mixed by multiplies.
uint64_t ReferenceLoopNs() {
  static const std::vector<uint64_t> table = [] {
    std::vector<uint64_t> t(1u << 15);
    for (size_t i = 0; i < t.size(); ++i) t[i] = i * 0x9E3779B97F4A7C15ull;
    return t;
  }();
  const uint64_t start = NowNs();
  uint64_t acc = 1;
  for (int i = 0; i < 200000; ++i) {
    acc = (acc ^ table[(acc >> 7) & (table.size() - 1)]) * 0xff51afd7ed558ccdull;
  }
  g_reference_sink = acc;
  return NowNs() - start;
}

}  // namespace

int PinToFastestCpu(const std::vector<int>& cpus) {
  int best = -1;
  uint64_t best_ns = UINT64_MAX;
  for (int cpu : cpus) {
    if (!PinTo(cpu)) continue;
    const uint64_t ns = std::min(ReferenceLoopNs(), ReferenceLoopNs());
    if (ns < best_ns) {
      best_ns = ns;
      best = cpu;
    }
  }
  return best >= 0 && PinTo(best) ? best : -1;
}

std::vector<int> ThreadsOffCpu(int cpu) {
  std::vector<int> off;
  for (int tid : ProcessThreads()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(tid, sizeof(set), &set) != 0) continue;  // exited
    if (CPU_COUNT(&set) != 1 || !CPU_ISSET(cpu, &set)) off.push_back(tid);
  }
  return off;
}

uint64_t CounterValue(const std::string& name) {
  uint64_t total = 0;
  for (const auto& metric :
       implistat::obs::MetricsRegistry::Global().Snapshot().metrics) {
    if (metric.name == name) total += metric.counter_value;
  }
  return total;
}

void Report::Note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  provenance[key] = buf;
}

namespace {
std::atomic<int> g_verify_failures{0};
}  // namespace

void VerifyFail(const std::string& what) {
  g_verify_failures.fetch_add(1);
  std::fprintf(stderr, "VERIFY FAILED: %s\n", what.c_str());
}

bool VerifyPassed() { return g_verify_failures.load() == 0; }

}  // namespace perfbench
