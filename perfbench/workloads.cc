#include "workloads.h"

#include <poll.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>

#include "datagen/netflow_gen.h"
#include "datagen/olap_gen.h"
#include "delta/delta.h"
#include "net/messages.h"
#include "query/parser.h"

namespace perfbench {
namespace {

using is::QueryEngine;
using is::QueryId;
using is::Status;

// ------------------------------------------------------------- query sets

// edge_ingest: one router monitor counting sources that concentrate on
// few destinations (at most 16, the top 8 carrying half their flows), at
// the paper's m = 64 bitmaps and F = 4 fringe (the SQL defaults), with a
// DDoS trigger armed on its rate of change. On a fresh stream the count
// stays a sizeable share of the supported sources (~28 K rising to
// ~60 K over a pass), the regime the estimator is accurate in: its
// answers stay within ~15% of the exact count. A tighter implication
// (at most 4 destinations, the top 2 carrying 80%) counts only ~200
// sources outside the DDoS episode, which the sketch answers as 0.
constexpr char kEdgeQuery[] =
    "SELECT COUNT(DISTINCT Source) FROM flows WHERE Source IMPLIES "
    "Destination WITH K = 16, SUPPORT = 4, CONFIDENCE = 0.5, C = 8";
constexpr char kEdgeTrigger[] =
    "CREATE TRIGGER ddos ON q0 WHEN DELTA(q0) > 5000 AND DELTA(q0) > 0.2 * "
    "MOVING_AVG(q0, 4) EVERY 262144 TUPLES COOLDOWN 1048576";

Status EdgeIngestQueries(QueryEngine& engine, bool triggers, QuerySet* out) {
  *out = QuerySet();
  IMPLISTAT_ASSIGN_OR_RETURN(QueryId id, engine.RegisterSql(kEdgeQuery));
  out->probe_ids = {id};
  out->accuracy_ids = {id};
  out->tenants = 1;
  if (triggers) {
    IMPLISTAT_RETURN_NOT_OK(engine.InstallTrigger(kEdgeTrigger).status());
    out->triggers = 1;
  }
  return Status::OK();
}

// tenant_dashboard: 1000 tenants over the paper's OLAP workload A
// ((A,E,F) -> B) and workload B (B -> E) shapes. 24 distinct keys
// (shape x sigma x gamma x WHERE variant) hold every synopsis; each
// tenth tenant past the first 24 opts into derived answers at a gamma
// no synopsis has, and is answered by entailment bounds.
constexpr int kTenants = 1000;
constexpr int kTenantKeys = 24;
constexpr int kTenantTriggers = 4;

// Each tenant selects from its own view name: RegisterSql labels a query
// with its text, and labels are unique per engine.
std::string TenantSql(int tenant, int key, double gamma_override) {
  static const char* const kSides[2][2] = {{"A, E, F", "B"}, {"B", "E"}};
  static const int kSigma[2] = {5, 50};
  static const double kGamma[2] = {0.6, 0.8};
  static const char* const kWhere[3] = {"", " AND C = 0", " AND D = 1"};
  const int where = key % 3;
  const int gamma = (key / 3) % 2;
  const int sigma = (key / 6) % 2;
  const int shape = (key / 12) % 2;
  char text[256];
  std::snprintf(text, sizeof(text),
                "SELECT COUNT(DISTINCT %s) FROM tenant%d WHERE %s IMPLIES %s%s "
                "WITH K = 2, SUPPORT = %d, CONFIDENCE = %.2f",
                kSides[shape][0], tenant, kSides[shape][0], kSides[shape][1],
                kWhere[where], kSigma[sigma],
                gamma_override > 0 ? gamma_override : kGamma[gamma]);
  return text;
}

/// Registers the first `tenants` tenants.
Status RegisterTenants(QueryEngine& engine, int tenants, bool triggers,
                       QuerySet* out) {
  *out = QuerySet();
  int owners = 0;
  int derived = 0;
  for (int t = 0; t < tenants; ++t) {
    QueryId id = -1;
    if (t >= kTenantKeys && t % 10 == 9) {
      IMPLISTAT_ASSIGN_OR_RETURN(
          is::ParsedQuery parsed,
          is::ParseImplicationQuery(TenantSql(t, derived++ % kTenantKeys, 0.7)));
      IMPLISTAT_ASSIGN_OR_RETURN(
          is::ImplicationQuerySpec spec,
          is::BindQuery(parsed, engine.schema(), nullptr));
      spec.allow_derived = true;
      IMPLISTAT_ASSIGN_OR_RETURN(id, engine.Register(std::move(spec)));
    } else {
      IMPLISTAT_ASSIGN_OR_RETURN(
          id, engine.RegisterSql(TenantSql(t, owners++ % kTenantKeys, -1)));
    }
    out->probe_ids.push_back(id);
    auto binding = engine.Binding(id);
    if (binding.ok() && *binding == is::QueryBinding::kDerived) ++out->derived;
  }
  // Exact twins for every synopsis would not fit in memory (the exact
  // counter reaches ~95 MB on workload A at 5.4 M tuples), so four keys
  // stand in: workload A at sigma 5, both gammas, unfiltered and with
  // C = 0. Workload B's strict counts stay near 0 on this stream and
  // sigma 50 leaves workload A a few dozen implications, so neither
  // gives a relative error worth tracking. Tenants 0..23 own keys 0..23.
  out->accuracy_ids = {0, 1, 3, 4};
  out->tenants = tenants;
  if (triggers) {
    for (int i = 0; i < kTenantTriggers; ++i) {
      char rule[160];
      std::snprintf(rule, sizeof(rule),
                    "CREATE TRIGGER watch%d ON q%d WHEN MOVING_AVG(q%d, 8) < "
                    "-1 EVERY 65536 TUPLES",
                    i, i, i);
      IMPLISTAT_RETURN_NOT_OK(engine.InstallTrigger(rule).status());
    }
    out->triggers = kTenantTriggers;
  }
  return Status::OK();
}

Status TenantQueries(QueryEngine& engine, bool triggers, QuerySet* out) {
  return RegisterTenants(engine, kTenants, triggers, out);
}

// The dashboard edge ships all 24 synopses upward; tenants 0..23 own them
// with the same query ids on the edge and the aggregate. A poll of only
// the first five took ~6.5 ms, short enough that the hypervisor's steal
// bursts set its p90 (runs with ~2% steal read ~9.3 ms, quiet ones ~7.4).
Status TenantUplinkQueries(QueryEngine& engine, bool /*triggers*/,
                           QuerySet* out) {
  return RegisterTenants(engine, kTenantKeys, false, out);
}

// fleet_delta: the same four lifetime NIPS/CI templates on every edge
// and on the aggregate (sliding windows cannot be folded across edges).
constexpr const char* kFleetQueries[] = {
    kEdgeQuery,
    "SELECT COUNT(DISTINCT Source) FROM flows WHERE Source IMPLIES "
    "Destination WITH K = 8, SUPPORT = 2, CONFIDENCE = 0.6, C = 4",
    "SELECT COUNT(DISTINCT Source, Service) FROM flows WHERE Source, Service "
    "IMPLIES Destination WITH K = 2, SUPPORT = 2, CONFIDENCE = 0.8",
    "SELECT COUNT(DISTINCT Source) FROM flows WHERE Source IMPLIES "
    "Destination AND Service = 0 WITH K = 16, SUPPORT = 4, CONFIDENCE = 0.5, "
    "C = 8",
};

Status FleetQueries(QueryEngine& engine, bool /*triggers*/, QuerySet* out) {
  *out = QuerySet();
  for (const char* sql : kFleetQueries) {
    IMPLISTAT_ASSIGN_OR_RETURN(QueryId id, engine.RegisterSql(sql));
    out->probe_ids.push_back(id);
    out->accuracy_ids.push_back(id);
  }
  out->tenants = static_cast<int>(out->probe_ids.size());
  return Status::OK();
}

/// Netflow traffic with one DDoS episode of `ddos_tuples` tuples from
/// stream position `ddos_start`, placed inside the timed part of a pass.
is::NetflowGenParams NetflowParams(uint64_t seed, uint64_t ddos_start,
                                   uint64_t ddos_tuples) {
  is::NetflowGenParams params;
  params.seed = seed;
  is::Episode ddos;
  ddos.kind = is::EpisodeKind::kDdos;
  ddos.start_tuple = ddos_start;
  ddos.length = ddos_tuples;
  ddos.intensity = 0.5;
  ddos.focus = 42;
  params.episodes = {ddos};
  return params;
}

// ---------------------------------------------------------- small helpers

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

bool Readable(int fd) {
  struct pollfd p = {fd, POLLIN, 0};
  return poll(&p, 1, 0) > 0 && (p.revents & POLLIN) != 0;
}

bool Submit(is::net::Client& client, const std::string& frame, OpCounts* ops) {
  ++ops->attempted;
  Status sent = client.Submit(is::net::MsgType::kObserveBatch, frame, true);
  if (sent.ok()) return true;
  ++ops->failed;
  VerifyFail("OBSERVE_BATCH submit: " + sent.ToString());
  return false;
}

bool AwaitAck(is::net::Client& client, OpCounts* ops) {
  is::StatusOr<std::string> ack = client.Await();
  if (ack.ok()) return true;
  ++ops->failed;
  VerifyFail("OBSERVE_BATCH ack: " + ack.status().ToString());
  return false;
}

bool Drain(is::net::Client& client, OpCounts* ops) {
  while (client.in_flight() > 0) {
    if (!AwaitAck(client, ops)) return false;
  }
  return true;
}

/// Open-loop generator: frames in flight past this count mean the
/// server fell behind by ~0.25 s, and the generator waits.
constexpr size_t kOpenBacklog = 48;

/// Open loop: reads the acknowledgements already waiting, and waits for
/// more only while the backlog is full.
bool ReadAcks(is::net::Client& client, OpCounts* ops) {
  while (client.in_flight() > 0 && Readable(client.fd())) {
    if (!AwaitAck(client, ops)) return false;
  }
  while (client.in_flight() >= kOpenBacklog) {
    if (!AwaitAck(client, ops)) return false;
  }
  return true;
}

bool PollRound(Uplink& uplink, OpCounts* ops, std::vector<Uplink::Round>* out) {
  Uplink::Round round = uplink.Poll();
  ops->attempted += static_cast<uint64_t>(round.stats.attempted);
  ops->failed += static_cast<uint64_t>(round.stats.failed);
  if (round.stats.failed > 0 || round.stats.succeeded != round.stats.attempted) {
    VerifyFail("uplink poll failed");
    return false;
  }
  if (round.stats.resyncs > 0) VerifyFail("uplink poll resynced");
  if (out != nullptr) out->push_back(round);
  return true;
}

bool CountedProbe(is::net::Client& client, QueryId id, OpCounts* ops,
            std::vector<Probe>* out) {
  ++ops->attempted;
  if (ProbeOnce(client, static_cast<uint32_t>(id), out)) return true;
  ++ops->failed;
  VerifyFail("QUERY probe failed");
  return false;
}

/// One QUERY for every probed id, so the writer's readout memo warms in
/// set-up rather than on a pass's first probes (every pass has a new
/// writer thread, and the memo is per thread).
Status WarmReadout(is::net::Client& client, const std::vector<QueryId>& ids,
                   OpCounts* ops) {
  std::vector<uint32_t> wanted(ids.begin(), ids.end());
  ++ops->attempted;
  is::StatusOr<is::net::QueryResponse> answers = client.Query(wanted);
  if (answers.ok() && answers->results.size() == wanted.size()) {
    return Status::OK();
  }
  ++ops->failed;
  return Status::Internal("readout warm-up QUERY failed");
}

/// PING round trips against the idle server, in µs.
std::vector<double> Pings(is::net::Client& client, OpCounts* ops) {
  std::vector<double> rtts;
  for (int i = 0; i < 200; ++i) {
    ++ops->attempted;
    const uint64_t start = NowNs();
    if (!client.Ping().ok()) {
      ++ops->failed;
      VerifyFail("PING failed");
      break;
    }
    rtts.push_back(static_cast<double>(NowNs() - start) / 1e3);
  }
  return rtts;
}

/// Busy CPU of the pipeline stages, and the wall clock: the generator
/// thread, the server reactors and the server writers.
struct CpuMark {
  uint64_t wall = 0, client = 0, reactor = 0, writer = 0;

  void AddSince(const CpuMark& a, const CpuMark& b) {
    wall += b.wall - a.wall;
    client += b.client - a.client;
    reactor += b.reactor - a.reactor;
    writer += b.writer - a.writer;
  }
};

CpuMark ReadCpu(int client, const std::vector<int>& reactors,
                const std::vector<int>& writers) {
  CpuMark mark;
  mark.wall = NowNs();
  mark.client = ThreadCpuNs(client);
  for (int tid : reactors) mark.reactor += ThreadCpuNs(tid);
  for (int tid : writers) mark.writer += ThreadCpuNs(tid);
  return mark;
}

/// Library counters, read around each timed phase.
struct Counters {
  uint64_t rx_bytes = 0, wakeups = 0, pull_failures = 0, resyncs = 0;

  static Counters Read() {
    Counters c;
    c.rx_bytes = CounterValue("implistat_net_bytes_rx_total");
    c.wakeups = CounterValue("implistat_reactor_wakeups_total");
    c.pull_failures = CounterValue("implistat_cluster_pull_failures_total");
    c.resyncs = CounterValue("implistat_delta_resyncs_total");
    return c;
  }
  void AddSince(const Counters& a, const Counters& b) {
    rx_bytes += b.rx_bytes - a.rx_bytes;
    wakeups += b.wakeups - a.wakeups;
    pull_failures += b.pull_failures - a.pull_failures;
    resyncs += b.resyncs - a.resyncs;
  }
};

// ------------------------------------------------------------------ passes

/// A run is a sequence of passes. Each pass sets the workload up afresh
/// (engines, registration, servers, connections, the warm-up prefix, the
/// bootstrap pulls and the readout warm-up: one setup_s sample), then
/// streams the rest of the pool once. So every timed tuple is new to the engine it reaches,
/// every pass sees the same stream at the same positions, and every
/// exact count repeats from pass to pass.
struct Pass {
  bool traced = false;
  int pinned_cpu = -1;  // the CPU every thread of the pass ran on
  double setup_s = 0;
  double register_ms = 0;
  uint64_t timed_ns = 0;
  uint64_t tuples = 0;
  /// Wall time of each ingest segment, in order: a poll interval's frames
  /// until acknowledged (single edge), or a whole round (fleet).
  std::vector<double> segment_ns;
  std::vector<Probe> probes;         // in the order they were sent
  std::vector<Uplink::Round> polls;  // the timed polls, in order
  std::vector<double> late_ms;       // how late each send ran
  uint64_t probe_slots = 0, probes_late = 0;  // open loop's probe schedule
  std::vector<double> ping_us;  // traced passes: PINGs after the timed phase
  CpuMark cpu;                  // stage busy time over the timed phase
  Counters counters;            // counter growth over the timed phase
};

/// Passes run until their timed phases add up to the run length, and at
/// least this many, so setup_s is a median of several set-ups.
constexpr size_t kMinPasses = 3;

/// Runs passes as above, each pinned before it starts to the allowed CPU
/// where a reference loop is fastest at that moment (every thread the pass
/// starts inherits the pin). In a traced run, the passes that start in the
/// second half of the run length are traced, and at least one is.
/// `run_pass` fills a Pass and returns false when the run must stop.
template <typename RunPass>
std::vector<Pass> RunPasses(const RunOptions& options, RunPass run_pass) {
  const uint64_t duration = static_cast<uint64_t>(options.seconds * 1e9);
  std::vector<Pass> passes;
  uint64_t timed = 0;
  bool traced_any = false;
  while (timed < duration || passes.size() < kMinPasses ||
         (options.trace && !traced_any)) {
    Pass pass;
    pass.traced = options.trace && !passes.empty() && timed >= duration / 2;
    pass.pinned_cpu = PinToFastestCpu(options.cpus);
    if (pass.pinned_cpu < 0) {
      VerifyFail("could not pin a pass to a CPU");
      break;
    }
    if (!run_pass(&pass)) break;
    timed += pass.timed_ns;
    traced_any = traced_any || pass.traced;
    passes.push_back(std::move(pass));
  }
  return passes;
}

/// The serialized layout holds while a pass is timed: every thread of the
/// process is pinned to the pass's CPU, and there are no more threads
/// than the load shape declares.
void CheckLayout(const RunOptions& options, int cpu) {
  const size_t threads = ProcessThreads().size();
  if (threads > static_cast<size_t>(options.shape.threads)) {
    VerifyFail("load shape exceeded: " + std::to_string(threads) +
               " threads, the shape declares " +
               std::to_string(options.shape.threads));
  }
  if (!ThreadsOffCpu(cpu).empty()) {
    VerifyFail("a thread runs off the pass's CPU");
  }
}

/// Span sampling is on only while a traced pass is timed.
void BeginTimed(const Pass& pass) {
  if (pass.traced) is::obs::Tracer::SetSampleEveryN(1);
}
void EndTimed(const Pass& pass, SpanCollector* spans) {
  if (!pass.traced) return;
  spans->Dump();
  is::obs::Tracer::SetSampleEveryN(0);
}

/// Every pass polls at the same positions, so it must ship the same
/// bytes at each poll as the first one.
void CheckPassesAgree(const std::vector<Pass>& passes) {
  for (const Pass& pass : passes) {
    bool same = pass.polls.size() == passes[0].polls.size();
    for (size_t i = 0; same && i < pass.polls.size(); ++i) {
      same = pass.polls[i].wire_bytes == passes[0].polls[i].wire_bytes;
    }
    if (!same) VerifyFail("a pass shipped other bytes than the first");
    if (pass.counters.resyncs != 0) VerifyFail("delta resyncs during a pass");
  }
}

/// The exact counts of a pass, the same in every pass of a run.
struct ExactCounts {
  uint64_t wire_bytes = 0;  // state bytes the timed polls shipped
  size_t polls = 0;
  double synopsis_kb = 0;
};

ExactCounts FirstPassWire(const std::vector<Pass>& passes) {
  ExactCounts exact;
  for (const Uplink::Round& round : passes[0].polls) {
    exact.wire_bytes += round.wire_bytes;
  }
  exact.polls = passes[0].polls.size();
  return exact;
}

/// A pass's own figures: its ingest rate over its segments, and the
/// percentiles of its probes and polls.
struct PassFigures {
  double mtps = 0, query_p50_us = 0, query_p90_us = 0, poll_p50_ms = 0,
         poll_p90_ms = 0;
};

PassFigures FiguresOf(const Pass& pass) {
  double ns = 0;
  for (double segment : pass.segment_ns) ns += segment;
  std::vector<double> rtts, poll_ms;
  for (const Probe& probe : pass.probes) rtts.push_back(probe.rtt_us);
  for (const Uplink::Round& round : pass.polls) poll_ms.push_back(round.poll_ms);
  PassFigures f;
  f.mtps = static_cast<double>(pass.tuples) * 1e3 / std::max(ns, 1.0);
  f.query_p50_us = Percentile(rtts, 0.5);
  f.query_p90_us = Percentile(rtts, 0.9);
  f.poll_p50_ms = Percentile(poll_ms, 0.5);
  f.poll_p90_ms = Percentile(poll_ms, 0.9);
  return f;
}

/// The end-to-end metrics over every pass of the run: the median pass's
/// ingest rate and set-up time, and percentiles of the pooled probes and
/// polls.
void ReportEndToEnd(const std::vector<Pass>& passes, const ExactCounts& exact,
                    Report* out) {
  std::vector<double> mtps, rtts, poll_ms, setup_s;
  for (const Pass& pass : passes) {
    mtps.push_back(FiguresOf(pass).mtps);
    setup_s.push_back(pass.setup_s);
    for (const Probe& probe : pass.probes) rtts.push_back(probe.rtt_us);
    for (const Uplink::Round& round : pass.polls) {
      poll_ms.push_back(round.poll_ms);
    }
  }
  out->Set("ingest_mtps", Median(mtps), "Mtuples/s");
  out->Set("query_p50_us", Percentile(rtts, 0.5), "us");
  out->Set("query_p90_us", Percentile(rtts, 0.9), "us");
  out->Set("poll_p50_ms", Percentile(poll_ms, 0.5), "ms");
  out->Set("poll_p90_ms", Percentile(poll_ms, 0.9), "ms");
  out->Set("wire_kb_per_poll",
           static_cast<double>(exact.wire_bytes) / 1024.0 /
               static_cast<double>(std::max<size_t>(exact.polls, 1)),
           "KB");
  out->Set("synopsis_kb", exact.synopsis_kb, "KB");
  out->Set("setup_s", Median(setup_s), "s");
}

/// Provenance every run prints: pass and sample counts behind the
/// percentiles, the spread of its set-ups and the CPUs its passes ran on.
/// Each pass's own figures go to stderr.
void NotePasses(const std::vector<Pass>& passes, Report* out) {
  size_t probes = 0, polls = 0;
  uint64_t ns = 0, tuples = 0;
  std::vector<double> setup_s;
  std::map<int, int> cpus;
  for (const Pass& pass : passes) {
    probes += pass.probes.size();
    polls += pass.polls.size();
    ns += pass.timed_ns;
    tuples += pass.tuples;
    setup_s.push_back(pass.setup_s);
    ++cpus[pass.pinned_cpu];
    const PassFigures f = FiguresOf(pass);
    std::fprintf(stderr,
                 "pass on cpu %d: setup %.4f s, %.4f Mtuples/s, query p50 %.1f "
                 "p90 %.1f us, poll p50 %.3f p90 %.3f ms\n",
                 pass.pinned_cpu, pass.setup_s, f.mtps, f.query_p50_us,
                 f.query_p90_us, f.poll_p50_ms, f.poll_p90_ms);
  }
  std::string cpu_passes;
  for (const auto& [cpu, count] : cpus) {
    cpu_passes += (cpu_passes.empty() ? "" : " ") + std::to_string(cpu) + ":" +
                  std::to_string(count);
  }
  out->Note("passes", static_cast<double>(passes.size()));
  out->Note("passes_per_cpu", cpu_passes);
  out->Note("samples.probes", static_cast<double>(probes));
  out->Note("samples.polls", static_cast<double>(polls));
  out->Note("samples.setups", static_cast<double>(setup_s.size()));
  out->Note("setup_s_min", Percentile(setup_s, 0));
  out->Note("setup_s_max", Percentile(setup_s, 1));
  out->Note("timed_seconds", static_cast<double>(ns) / 1e9);
  out->Note("timed_tuples", static_cast<double>(tuples));
  out->Note("tuples_per_pass",
            static_cast<double>(passes.empty() ? 0 : passes[0].tuples));
}

/// The ledger closes when the stages' busy time accounts for the
/// end-to-end time per tuple within this share. Every thread shares one
/// CPU, so in a closed loop the stages run one after another and their
/// busy times add up to the wall time; what is missing is idle CPU.
constexpr double kLedgerTolerance = 0.10;

/// Reports each stage's busy ns per tuple over `cpu`, the busiest stage's
/// share of the end-to-end ns/tuple and the share of all stages. With
/// `check`, notes whether the ledger closes.
void ReportLedger(const CpuMark& cpu, uint64_t tuples, bool check,
                  Report* out) {
  const double n = static_cast<double>(std::max<uint64_t>(tuples, 1));
  const double client = static_cast<double>(cpu.client) / n;
  const double reactor = static_cast<double>(cpu.reactor) / n;
  const double writer = static_cast<double>(cpu.writer) / n;
  const double e2e = static_cast<double>(cpu.wall) / n;
  const double sum_share = (client + reactor + writer) / e2e;
  out->Set("ledger.client_ns_per_tuple", client, "ns");
  out->Set("ledger.reactor_ns_per_tuple", reactor, "ns");
  out->Set("ledger.writer_ns_per_tuple", writer, "ns");
  out->Set("ledger.e2e_ns_per_tuple", e2e, "ns");
  out->Set("ledger.busiest_share", std::max({client, reactor, writer}) / e2e,
           "fraction");
  out->Set("ledger.stage_sum_share", sum_share, "fraction");
  if (check) {
    const bool closed = std::fabs(sum_share - 1) <= kLedgerTolerance;
    out->Note("ledger_check", closed ? "closed" : "open");
    if (!closed) {
      std::fprintf(stderr,
                   "ledger open: stages account for %.3f of the end-to-end "
                   "ns/tuple (tolerance %.2f)\n",
                   sum_share, kLedgerTolerance);
    }
  }
}

/// The cost a traced pass is compared on for obs.trace_overhead_frac.
enum class Headline { kNsPerTuple, kQueryP50, kPollP50 };

double HeadlineCost(const std::vector<Pass>& passes, bool traced,
                    Headline headline) {
  uint64_t ns = 0, tuples = 0;
  std::vector<double> rtts, poll_ms;
  for (const Pass& pass : passes) {
    if (pass.traced != traced) continue;
    ns += pass.timed_ns;
    tuples += pass.tuples;
    for (const Probe& probe : pass.probes) rtts.push_back(probe.rtt_us);
    for (const Uplink::Round& round : pass.polls) {
      poll_ms.push_back(round.poll_ms);
    }
  }
  switch (headline) {
    case Headline::kNsPerTuple:
      return static_cast<double>(ns) /
             static_cast<double>(std::max<uint64_t>(tuples, 1));
    case Headline::kQueryP50:
      return Median(rtts);
    case Headline::kPollP50:
      return Median(poll_ms);
  }
  return 0;
}

/// The per-layer metrics every workload's traced run takes from its
/// passes: the CPU ledger over the untraced passes, the trace overhead,
/// span timings, counters, uplink splits and load-generator health.
void ReportTraced(const std::vector<Pass>& passes, Headline headline,
                  bool ledger_check, const SpanCollector& spans,
                  Report* out) {
  CpuMark untraced_cpu;
  uint64_t untraced_tuples = 0, tuples = 0, slots = 0, late = 0;
  size_t polls = 0;
  Counters counters;
  std::vector<double> register_ms, pull_ms, fold_ms, late_ms, ping_us, rtts;
  for (const Pass& pass : passes) {
    if (!pass.traced) {
      untraced_cpu.AddSince(CpuMark(), pass.cpu);
      untraced_tuples += pass.tuples;
    }
    tuples += pass.tuples;
    slots += pass.probe_slots;
    late += pass.probes_late;
    polls += pass.polls.size();
    counters.AddSince(Counters(), pass.counters);
    register_ms.push_back(pass.register_ms);
    for (const Uplink::Round& round : pass.polls) {
      pull_ms.push_back(round.poll_ms - round.fold_ms);
      fold_ms.push_back(round.fold_ms);
    }
    late_ms.insert(late_ms.end(), pass.late_ms.begin(), pass.late_ms.end());
    ping_us.insert(ping_us.end(), pass.ping_us.begin(), pass.ping_us.end());
    for (const Probe& probe : pass.probes) rtts.push_back(probe.rtt_us);
  }
  ReportLedger(untraced_cpu, untraced_tuples, ledger_check, out);
  out->Set("obs.trace_overhead_frac",
           HeadlineCost(passes, true, headline) /
                   HeadlineCost(passes, false, headline) -
               1,
           "fraction");
  SpanLayerTimings(spans.spans(), out);
  const double n = static_cast<double>(std::max<uint64_t>(tuples, 1));
  out->Set("net.ping_rtt_us_p50", Median(ping_us), "us");
  out->Set("net.rx_bytes_per_tuple", static_cast<double>(counters.rx_bytes) / n,
           "bytes");
  out->Set("net.wakeups_per_batch",
           static_cast<double>(counters.wakeups) * kBatchTuples / n, "count");
  out->Set("query.register_ms", Median(register_ms), "ms");
  out->Set("cluster.pull_ms", Median(pull_ms), "ms");
  out->Set("cluster.fold_ms", Median(fold_ms), "ms");
  out->Set("cluster.pull_failures", static_cast<double>(counters.pull_failures),
           "count");
  out->Set("delta.resyncs_per_poll",
           static_cast<double>(counters.resyncs) /
               static_cast<double>(std::max<size_t>(polls, 1)),
           "count");
  out->Set("gen.late_ms_p99", Percentile(late_ms, 0.99), "ms");
  // The QUERY p99 over every pass. It is a per-layer figure, not an
  // end-to-end one, because host steal sets it on a shared VM: runs with
  // ~4% steal read about twice the p99 of quiet ones.
  out->Set("gen.query_p99_us", Percentile(rtts, 0.99), "us");
  out->Set("gen.probe_skipped_frac",
           static_cast<double>(late) /
               static_cast<double>(std::max<uint64_t>(slots, 1)),
           "fraction");
  out->Note("samples.pings", static_cast<double>(ping_us.size()));
}

// ------------------------------------------------------------ twin replay

/// Representative query ids of the fold units an aggregate registered by
/// `registrar` has: what the uplink pulls, in pull order.
std::vector<QueryId> ShippedIds(const is::Schema& schema,
                                const Registrar& registrar) {
  QueryEngine engine(schema);
  QuerySet queries;
  std::vector<QueryId> ids;
  if (!registrar(engine, false, &queries).ok()) return ids;
  for (const QueryEngine::FoldUnit& unit : engine.FoldUnits()) {
    ids.push_back(unit.representative);
  }
  return ids;
}

/// An in-process twin of one served engine: fed the served engine's
/// batches in arrival order, it must end byte-identical to it and answer
/// every probe identically. It also replays the delta pulls the uplink
/// made, timing SerializeDelta / WrapDeltaSnapshot / ApplyDeltaSnapshot
/// per fold unit on exactly the states that were shipped. `shipped` names
/// the uplink's fold units by their representative query ids.
class TwinReplay {
 public:
  TwinReplay(const StreamPool& pool, const Registrar& registrar, bool triggers,
             std::vector<QueryId> shipped)
      : pool_(pool), engine_(pool.schema), shipped_(std::move(shipped)) {
    Status status = registrar(engine_, triggers, &queries_);
    if (!status.ok()) VerifyFail("twin registration: " + status.ToString());
  }

  QueryEngine& engine() { return engine_; }
  const QuerySet& queries() const { return queries_; }
  uint64_t tuples() const { return engine_.tuples_seen(); }

  void Apply(size_t pool_batch) {
    observe_ns_ += ApplyBatch(engine_, pool_.schema, pool_.Batch(pool_batch));
    // The server drains firings after every op; so does the twin.
    if (engine_.has_pending_trigger_firings()) engine_.TakeTriggerFirings();
  }

  /// Checks every probe answered at the current position.
  void CheckProbes(const std::vector<Probe>& sorted, size_t* next) {
    while (*next < sorted.size() && sorted[*next].tuples_seen <= tuples()) {
      const Probe& probe = sorted[(*next)++];
      if (probe.tuples_seen != tuples()) {
        VerifyFail("probe answered between batch boundaries");
        continue;
      }
      const uint64_t start = NowNs();
      is::StatusOr<is::QueryAnswer> answer =
          engine_.AnswerEx(static_cast<QueryId>(probe.id));
      answer_ex_us_.push_back(static_cast<double>(NowNs() - start) / 1e3);
      if (!answer.ok() || answer->estimate != probe.estimate ||
          answer->std_error != probe.std_error ||
          answer->derived != probe.derived ||
          (probe.derived &&
           (answer->lower != probe.lower || answer->upper != probe.upper))) {
        VerifyFail("probe of query " + std::to_string(probe.id) + " at " +
                   std::to_string(probe.tuples_seen) +
                   " differs from the twin's AnswerEx");
      }
    }
  }

  /// Times AnswerEx for every probed query at the current position.
  void TimeAnswers() {
    for (QueryId id : queries_.probe_ids) {
      const uint64_t start = NowNs();
      const bool answered = engine_.AnswerEx(id).ok();
      answer_ex_us_.push_back(static_cast<double>(NowNs() - start) / 1e3);
      if (!answered) VerifyFail("twin AnswerEx failed");
    }
  }

  /// The bootstrap full pull: every unit's baseline noted at this epoch
  /// and a receiver materialized from its full state.
  void Bootstrap() {
    epoch_ = tuples();
    receivers_.clear();
    for (QueryId id : shipped_) {
      const is::ImplicationEstimator* est = Unit(id);
      auto state = est->SerializeState();
      auto receiver = state.ok() ? is::MaterializeEstimator(*state)
                                 : is::StatusOr<std::unique_ptr<
                                       is::ImplicationEstimator>>(state.status());
      if (!receiver.ok()) {
        VerifyFail("twin bootstrap: " + receiver.status().ToString());
        return;
      }
      est->NoteSnapshotEpoch(epoch_);
      receivers_.push_back(std::move(*receiver));
    }
  }

  /// One delta pull of every fold unit; returns the sealed bytes.
  uint64_t DeltaPull() {
    const uint64_t now = tuples();
    uint64_t bytes = 0;
    for (size_t u = 0; u < shipped_.size() && u < receivers_.size(); ++u) {
      const is::ImplicationEstimator* est = Unit(shipped_[u]);
      const uint64_t t0 = NowNs();
      auto fragment = est->SerializeDelta(epoch_, now);
      const uint64_t t1 = NowNs();
      if (!fragment.ok()) {
        VerifyFail("twin SerializeDelta: " + fragment.status().ToString());
        return bytes;
      }
      const std::string sealed =
          is::WrapDeltaSnapshot(epoch_, now, *fragment, /*allow_rle=*/true);
      const uint64_t t2 = NowNs();
      auto applied = is::ApplyDeltaSnapshot(receivers_[u].get(), sealed, epoch_);
      const uint64_t t3 = NowNs();
      if (!applied.ok()) {
        VerifyFail("twin ApplyDeltaSnapshot: " + applied.status().ToString());
        return bytes;
      }
      serialize_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
      wrap_us_.push_back(static_cast<double>(t2 - t1) / 1e3);
      apply_us_.push_back(static_cast<double>(t3 - t2) / 1e3);
      bytes += sealed.size();
      auto full = est->SerializeState();
      if (full.ok()) full_bytes_ += full->size();
      delta_bytes_ += sealed.size();
    }
    epoch_ = now;
    return bytes;
  }

  /// Memory over the twin's synopses (each shared estimator once).
  double SynopsisKb() const {
    return static_cast<double>(engine_.TotalSynopsisMemoryBytes()) / 1024.0;
  }

  void ReportLayers(Report* out) const {
    out->Set("query.observe_ns_per_tuple",
             static_cast<double>(observe_ns_) /
                 static_cast<double>(std::max<uint64_t>(tuples(), 1)),
             "ns");
    out->Set("query.answer_ex_us_p50", Percentile(answer_ex_us_, 0.5), "us");
    out->Set("query.answer_ex_us_p99", Percentile(answer_ex_us_, 0.99), "us");
    out->Set("delta.serialize_us", Median(serialize_us_), "us");
    out->Set("delta.wrap_us", Median(wrap_us_), "us");
    out->Set("delta.apply_us", Median(apply_us_), "us");
    out->Set("delta.ratio",
             static_cast<double>(delta_bytes_) /
                 static_cast<double>(std::max<uint64_t>(full_bytes_, 1)),
             "fraction");
    out->Note("delta.ratio_base",
              "sealed delta bytes / full SerializeState bytes of the same "
              "fold units at the same poll positions");
    out->Note("query.answer_ex_samples",
              static_cast<double>(answer_ex_us_.size()));
  }

 private:
  const is::ImplicationEstimator* Unit(QueryId id) {
    return engine_.Estimator(id).value();
  }

  const StreamPool& pool_;
  QueryEngine engine_;
  std::vector<QueryId> shipped_;
  QuerySet queries_;
  std::vector<std::unique_ptr<is::ImplicationEstimator>> receivers_;
  uint64_t epoch_ = 0;
  uint64_t observe_ns_ = 0;
  uint64_t delta_bytes_ = 0;
  uint64_t full_bytes_ = 0;
  std::vector<double> answer_ex_us_;
  std::vector<double> serialize_us_, wrap_us_, apply_us_;
};

/// Exact-estimator twins of a query subset, for rel_error.
class ExactTwin {
 public:
  ExactTwin(const StreamPool& pool, const QueryEngine& served,
            const std::vector<QueryId>& ids)
      : pool_(pool), engine_(pool.schema), ids_(ids) {
    for (QueryId id : ids) {
      is::ImplicationQuerySpec spec = **served.Spec(id);
      spec.estimator.kind = is::EstimatorKind::kExact;
      spec.allow_derived = false;
      spec.label.clear();
      auto exact = engine_.Register(std::move(spec));
      if (!exact.ok()) VerifyFail("exact twin: " + exact.status().ToString());
      exact_ids_.push_back(exact.ok() ? *exact : -1);
    }
  }

  void Apply(size_t pool_batch) {
    ApplyBatch(engine_, pool_.schema, pool_.Batch(pool_batch));
  }

  /// Adds |S^ - S| / S of `estimates` (aligned with the ids) at the
  /// current position.
  void Score(const std::vector<double>& estimates) {
    for (size_t i = 0; i < exact_ids_.size() && i < estimates.size(); ++i) {
      auto exact = engine_.Answer(exact_ids_[i]);
      if (!exact.ok()) continue;
      errors_.push_back(std::fabs(estimates[i] - *exact) /
                        std::max(*exact, 1.0));
    }
  }

  double MeanError() const {
    double sum = 0;
    for (double e : errors_) sum += e;
    return errors_.empty() ? 0 : sum / static_cast<double>(errors_.size());
  }

 private:
  const StreamPool& pool_;
  QueryEngine engine_;
  std::vector<QueryId> ids_;
  std::vector<QueryId> exact_ids_;
  std::vector<double> errors_;
};

/// Fails the run when the lifetime answers drift past what the paper's
/// configuration delivers on these streams.
constexpr double kMaxRelError = 0.75;

/// rel_error is exact for a seed but varies across seeds by the sketch's
/// own sampling error, so it is a per-layer metric (`out` non-null in the
/// traced run) and a gate in every run.
void CheckAccuracy(const ExactTwin& exact, Report* out) {
  const double error = exact.MeanError();
  if (out != nullptr) out->Set("rel_error", error, "fraction");
  if (!(error <= kMaxRelError)) {
    VerifyFail("rel_error " + std::to_string(error) + " above " +
               std::to_string(kMaxRelError));
  }
}

// ------------------------------------------------------ single-edge flow

struct SingleEdgeConfig {
  Registrar registrar;         // the edge's queries and triggers
  Registrar uplink_registrar;  // what the aggregate folds (a prefix of them)
  /// One pass streams the whole pool: the warm-up prefix in set-up, the
  /// rest timed, polled every poll_every batches (which divides the rest,
  /// so the last timed batch ends on a poll).
  size_t pool_batches = 0;
  size_t warmup_batches = 0;
  size_t poll_every = 0;
  bool open_loop = false;
  double offered_mtps = 0;  // open loop: fixed offered rate
  /// QUERY probes, all sent from the ingest thread and each timed from
  /// its send to its reply, so every pass probes the same queries at the
  /// same stream positions:
  /// - probes_per_poll: sent on the ingest connection after each poll
  ///   (readout against an idle edge, never beside ingest);
  /// - probes_per_frame: the open loop's dashboards, a closed loop on a
  ///   second connection. Each frame interval holds this many probe slots
  ///   at fixed offsets from the frame's send; the first lands on the
  ///   frame's apply in every pass, so the QUERY tail is the head-of-line
  ///   wait behind a batch rather than whatever the host adds.
  size_t probes_per_poll = 0;
  size_t probes_per_frame = 0;
};

/// Frames in flight on the closed loop and in the warm-up.
constexpr size_t kWindow = 16;

/// How long after a frame's send the open loop's first probe of the
/// interval goes out: long enough for the reactor to have read, decoded
/// and handed the frame to the writer (a 0.4 ms offset still overtook it
/// more than half the time), short against the frame's ~2.8 ms apply.
constexpr uint64_t kFirstProbeNs = 1000000;

struct SingleEdgeEnv {
  std::unique_ptr<Edge> edge;
  std::unique_ptr<QueryEngine> aggregate;
  std::unique_ptr<Uplink> uplink;
  std::unique_ptr<is::net::Client> ingest;
  std::unique_ptr<is::net::Client> reader;  // the dashboards' connection
  QuerySet queries;
  double register_ms = 0;
};

Status SetupSingleEdge(const SingleEdgeConfig& cfg, const StreamPool& pool,
                       SingleEdgeEnv* env, OpCounts* ops) {
  env->edge = std::make_unique<Edge>(pool.schema);
  const uint64_t reg_start = NowNs();
  IMPLISTAT_RETURN_NOT_OK(
      cfg.registrar(env->edge->engine(), true, &env->queries));
  env->register_ms = Ms(NowNs() - reg_start);
  IMPLISTAT_RETURN_NOT_OK(env->edge->Start());
  const uint16_t port = env->edge->port();

  IMPLISTAT_ASSIGN_OR_RETURN(is::net::Client ingest,
                             is::net::Client::Connect("127.0.0.1", port));
  env->ingest = std::make_unique<is::net::Client>(std::move(ingest));
  if (cfg.probes_per_frame > 0) {
    IMPLISTAT_ASSIGN_OR_RETURN(is::net::Client reader,
                               is::net::Client::Connect("127.0.0.1", port));
    env->reader = std::make_unique<is::net::Client>(std::move(reader));
  }

  env->aggregate = std::make_unique<QueryEngine>(pool.schema);
  QuerySet aggregate_queries;
  IMPLISTAT_RETURN_NOT_OK(
      cfg.uplink_registrar(*env->aggregate, false, &aggregate_queries));
  env->uplink = std::make_unique<Uplink>(
      env->aggregate.get(),
      std::vector<is::cluster::PeerConfig>{{"127.0.0.1", port, "edge0"}},
      nullptr);
  IMPLISTAT_RETURN_NOT_OK(env->uplink->Init());

  // Warm-up prefix: synopses fill their fringes here rather than in the
  // timed phase.
  for (size_t k = 0; k < cfg.warmup_batches; ++k) {
    if (env->ingest->in_flight() >= kWindow &&
        !AwaitAck(*env->ingest, ops)) {
      return Status::Internal("warm-up ack failed");
    }
    if (!Submit(*env->ingest, pool.frames[k], ops)) {
      return Status::Internal("warm-up submit failed");
    }
  }
  if (!Drain(*env->ingest, ops)) return Status::Internal("warm-up drain");
  // Bootstrap full pulls: the first uplink round ships whole snapshots.
  if (!PollRound(*env->uplink, ops, nullptr)) {
    return Status::Internal("bootstrap poll failed");
  }
  return WarmReadout(*env->ingest, env->queries.probe_ids, ops);
}

/// What the passes of a single-edge run share.
struct SingleEdgeRun {
  OpCounts* ops = nullptr;
  SpanCollector spans;
  std::string first_state;  // the served engine after the first pass
};

/// One pass: set-up, the timed rest of the pool, then the pass's own
/// checks (the aggregate equals a refold of full pulls; the served
/// engine equals the first pass's) before it is torn down.
bool SingleEdgePass(const SingleEdgeConfig& cfg, const StreamPool& pool,
                    const RunOptions& options, SingleEdgeRun* run,
                    Pass* pass) {
  OpCounts& ops = *run->ops;
  SingleEdgeEnv env;
  const uint64_t setup_start = NowNs();
  const Status status = SetupSingleEdge(cfg, pool, &env, &ops);
  pass->setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  pass->register_ms = env.register_ms;
  if (!status.ok()) {
    VerifyFail("set-up: " + status.ToString());
    return false;
  }
  is::net::Client& client = *env.ingest;
  const std::vector<QueryId>& ids = env.queries.probe_ids;
  const std::vector<int> reactors = {env.edge->reactor_tid()};
  const std::vector<int> writers = {env.edge->writer_tid()};
  const uint64_t interval_ns =
      cfg.open_loop ? static_cast<uint64_t>(static_cast<double>(kBatchTuples) *
                                            1e3 / cfg.offered_mtps)
                    : 0;
  size_t next_id = 0;

  // --- timed phase ---
  // Segments of poll_every frames, each acknowledged in full and then
  // polled. The open loop's schedule restarts with every segment, so a
  // poll's hold on the writer never leaves the next segment's frames late.
  CheckLayout(options, pass->pinned_cpu);
  BeginTimed(*pass);
  const Counters counters0 = Counters::Read();
  const CpuMark cpu0 = ReadCpu(CurrentTid(), reactors, writers);
  bool ok = true;
  for (size_t k = cfg.warmup_batches; ok && k < cfg.pool_batches;
       k += cfg.poll_every) {
    const uint64_t start = NowNs();
    for (size_t f = 0; ok && f < cfg.poll_every; ++f) {
      if (cfg.open_loop) {
        const uint64_t due = start + f * interval_ns;
        ok = ReadAcks(client, &ops);
        SleepUntilNs(due);
        pass->late_ms.push_back(Ms(NowNs() - due));
      } else if (client.in_flight() >= kWindow) {
        // Closed loop: a send is as late as its wait for a window slot.
        const uint64_t blocked = NowNs();
        ok = AwaitAck(client, &ops);
        pass->late_ms.push_back(Ms(NowNs() - blocked));
      }
      ok = ok && Submit(client, pool.frames[k + f], &ops);
      for (size_t q = 0; ok && q < cfg.probes_per_frame; ++q) {
        // Slot 0 follows the frame by kFirstProbeNs, so it waits behind
        // the frame's apply; the others are spread over the interval. A
        // slot whose previous reply is still out is sent late.
        const uint64_t slot = start + f * interval_ns + kFirstProbeNs +
                              q * interval_ns / cfg.probes_per_frame;
        ok = ReadAcks(client, &ops);
        ++pass->probe_slots;
        if (NowNs() > slot) ++pass->probes_late;
        SleepUntilNs(slot);
        ok = ok && CountedProbe(*env.reader, ids[next_id++ % ids.size()], &ops,
                                &pass->probes);
      }
    }
    ok = ok && Drain(client, &ops);
    pass->segment_ns.push_back(static_cast<double>(NowNs() - start));
    ok = ok && PollRound(*env.uplink, &ops, &pass->polls);
    for (size_t q = 0; ok && q < cfg.probes_per_poll; ++q) {
      ok = CountedProbe(client, ids[next_id++ % ids.size()], &ops,
                        &pass->probes);
    }
    // Rings hold 2048 spans a thread: copy them out every poll.
    if (pass->traced) run->spans.Dump();
  }
  const CpuMark cpu1 = ReadCpu(CurrentTid(), reactors, writers);
  pass->counters.AddSince(counters0, Counters::Read());
  pass->cpu.AddSince(cpu0, cpu1);
  pass->timed_ns = cpu1.wall - cpu0.wall;
  pass->tuples = (cfg.pool_batches - cfg.warmup_batches) * kBatchTuples;
  EndTimed(*pass, &run->spans);
  if (pass->traced) pass->ping_us = Pings(client, &ops);

  // --- the pass's own checks ---
  // The supervised aggregate equals a refold of full snapshots pulled
  // from the edge now (the last poll ran at the final position).
  auto refold = RefoldFromFullPulls(pool.schema, cfg.uplink_registrar,
                                    {env.edge->port()});
  if (!refold.ok()) {
    VerifyFail("full pulls: " + refold.status().ToString());
  } else {
    CompareFoldUnits(**refold, *env.aggregate,
                     "aggregate vs refold of full pulls");
  }
  env.edge->Stop();
  auto served = env.edge->engine().SerializeState();
  if (!served.ok()) {
    VerifyFail("served engine: " + served.status().ToString());
  } else if (run->first_state.empty()) {
    run->first_state = std::move(*served);
  } else if (*served != run->first_state) {
    VerifyFail("a pass's served engine differs from the first pass's");
  }
  return ok;
}

RunResult RunSingleEdge(const SingleEdgeConfig& cfg, const StreamPool& pool,
                        const RunOptions& options) {
  RunResult result;
  Report& report = result.report;
  SingleEdgeRun run;
  run.ops = &result.ops;
  if (cfg.pool_batches != pool.num_batches() ||
      cfg.warmup_batches >= cfg.pool_batches ||
      (cfg.pool_batches - cfg.warmup_batches) % cfg.poll_every != 0) {
    VerifyFail("pool does not fit the pass layout");
    return result;
  }
  const std::vector<Pass> passes = RunPasses(options, [&](Pass* pass) {
    return SingleEdgePass(cfg, pool, options, &run, pass);
  });
  if (passes.empty()) return result;
  CheckPassesAgree(passes);

  // --- verification against an in-process twin ---
  // Every pass fed the same batches in the same order to a fresh engine,
  // so one replay of the pool checks them all: each pass's served engine
  // (equal to the first's), every probe of every pass, and each poll's
  // bytes (equal across passes) against the deltas the twin re-creates.
  TwinReplay twin(pool, cfg.registrar, true,
                  ShippedIds(pool.schema, cfg.uplink_registrar));
  ExactTwin exact(pool, twin.engine(), twin.queries().accuracy_ids);
  std::vector<Probe> sorted;
  for (const Pass& pass : passes) {
    sorted.insert(sorted.end(), pass.probes.begin(), pass.probes.end());
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Probe& a, const Probe& b) {
                     return a.tuples_seen < b.tuples_seen;
                   });
  const std::vector<Uplink::Round>& polls = passes[0].polls;
  size_t next_probe = 0, poll = 0;
  for (size_t b = 0; b < cfg.pool_batches; ++b) {
    twin.Apply(b);
    exact.Apply(b);
    twin.CheckProbes(sorted, &next_probe);
    const size_t sent = b + 1;
    if (sent == cfg.warmup_batches) twin.Bootstrap();
    if (sent <= cfg.warmup_batches ||
        (sent - cfg.warmup_batches) % cfg.poll_every != 0) {
      continue;
    }
    const uint64_t bytes = twin.DeltaPull();
    if (poll >= polls.size() || polls[poll].wire_bytes != bytes) {
      VerifyFail("poll " + std::to_string(poll) +
                 " shipped other bytes than the replayed deltas' " +
                 std::to_string(bytes));
    }
    ++poll;
    std::vector<double> estimates;
    for (QueryId id : twin.queries().accuracy_ids) {
      estimates.push_back(*twin.engine().Answer(id));
    }
    exact.Score(estimates);
  }
  if (poll != polls.size()) VerifyFail("a pass polled off the pool's grid");
  if (next_probe != sorted.size()) VerifyFail("probes beyond the stream");
  {
    auto mirrored = twin.engine().SerializeState();
    if (!mirrored.ok() || *mirrored != run.first_state) {
      VerifyFail("served engine differs from its in-process twin");
    }
  }
  ExactCounts counts = FirstPassWire(passes);
  counts.synopsis_kb = twin.SynopsisKb();

  // --- metrics ---
  NotePasses(passes, &report);
  if (!options.trace) {
    ReportEndToEnd(passes, counts, &report);
    CheckAccuracy(exact, nullptr);
    return result;
  }
  CheckAccuracy(exact, &report);
  // A closed loop is judged by its ns/tuple, the open loop (whose rate is
  // fixed) by its QUERY median.
  ReportTraced(passes,
               cfg.open_loop ? Headline::kQueryP50 : Headline::kNsPerTuple,
               !cfg.open_loop, run.spans, &report);
  twin.ReportLayers(&report);
  DirectLayerTimings(pool, twin.engine(), cfg.registrar, &report);
  return result;
}

// ------------------------------------------------------------ fleet flow

struct FleetConfig {
  int edges = 8;
  /// One pass: warmup_rounds in set-up, then the remaining rounds timed.
  /// Each round feeds every edge one batch, so a pass streams
  /// rounds * edges batches of the pool.
  size_t rounds = 72;
  size_t warmup_rounds = 8;
  int probes_per_round = 16;
};

struct FleetEnv {
  std::vector<std::unique_ptr<Edge>> edges;
  std::unique_ptr<Edge> hub;  // serves the aggregate engine
  std::unique_ptr<Uplink> uplink;
  std::unique_ptr<is::net::Client> reader;
  QuerySet queries;
  double register_ms = 0;
};

/// Batch of the pool edge `e` ingests in round `r`: the stream is cut
/// round-major into per-edge partitions.
size_t FleetBatch(int edges, size_t r, int e) {
  return r * static_cast<size_t>(edges) + static_cast<size_t>(e);
}

Status SetupFleet(const FleetConfig& cfg, const StreamPool& pool,
                  FleetEnv* env, OpCounts* ops) {
  const Registrar registrar = FleetQueries;
  std::vector<is::cluster::PeerConfig> peers;
  for (int e = 0; e < cfg.edges; ++e) {
    auto edge = std::make_unique<Edge>(pool.schema);
    const uint64_t reg_start = NowNs();
    IMPLISTAT_RETURN_NOT_OK(registrar(edge->engine(), false, &env->queries));
    env->register_ms += Ms(NowNs() - reg_start);
    IMPLISTAT_RETURN_NOT_OK(edge->Start());
    peers.push_back({"127.0.0.1", edge->port(), "edge" + std::to_string(e)});
    env->edges.push_back(std::move(edge));
  }
  for (size_t r = 0; r < cfg.warmup_rounds; ++r) {
    for (int e = 0; e < cfg.edges; ++e) {
      Edge& edge = *env->edges[static_cast<size_t>(e)];
      ++ops->attempted;
      edge.RunOnWriter([&] {
        ApplyBatch(edge.engine(), pool.schema,
                   pool.Batch(FleetBatch(cfg.edges, r, e)));
      });
    }
  }
  env->hub = std::make_unique<Edge>(pool.schema);
  QuerySet hub_queries;
  IMPLISTAT_RETURN_NOT_OK(registrar(env->hub->engine(), false, &hub_queries));
  env->uplink = std::make_unique<Uplink>(&env->hub->engine(), std::move(peers),
                                         &env->hub->server());
  IMPLISTAT_RETURN_NOT_OK(env->uplink->Init());
  IMPLISTAT_RETURN_NOT_OK(env->hub->Start());
  if (!PollRound(*env->uplink, ops, nullptr)) {
    return Status::Internal("bootstrap poll failed");
  }
  IMPLISTAT_ASSIGN_OR_RETURN(
      is::net::Client reader,
      is::net::Client::Connect("127.0.0.1", env->hub->port()));
  env->reader = std::make_unique<is::net::Client>(std::move(reader));
  return WarmReadout(*env->reader, env->queries.probe_ids, ops);
}

/// What the passes of a fleet run share.
struct FleetRun {
  OpCounts* ops = nullptr;
  SpanCollector spans;
  std::vector<std::string> first_states;  // each edge after the first pass
  std::vector<double> first_estimates;    // aggregate answers, first pass
  double synopsis_kb = 0;                 // aggregate memory, first pass
  std::vector<double> feed_apply_us;      // traced passes' injected applies
};

/// One fleet pass: set-up, the timed rounds, then the pass's own checks
/// (the aggregate equals a refold of full pulls and answered the last
/// round's probes as that refold does; every probe read the aggregate of
/// the round it followed; each edge and the aggregate's answers equal
/// the first pass's) before it is torn down.
bool FleetPass(const FleetConfig& cfg, const StreamPool& pool,
               const RunOptions& options, FleetRun* run, Pass* pass) {
  OpCounts& ops = *run->ops;
  const Registrar registrar = FleetQueries;
  FleetEnv env;
  const uint64_t setup_start = NowNs();
  const Status status = SetupFleet(cfg, pool, &env, &ops);
  pass->setup_s = static_cast<double>(NowNs() - setup_start) / 1e9;
  pass->register_ms = env.register_ms;
  if (!status.ok()) {
    VerifyFail("set-up: " + status.ToString());
    return false;
  }
  is::net::Client& reader = *env.reader;
  const std::vector<QueryId>& ids = env.queries.probe_ids;
  std::vector<int> reactors = {env.hub->reactor_tid()};
  std::vector<int> writers = {env.hub->writer_tid()};
  for (const auto& edge : env.edges) {
    reactors.push_back(edge->reactor_tid());
    writers.push_back(edge->writer_tid());
  }
  const uint64_t fleet_batch_tuples =
      static_cast<uint64_t>(cfg.edges) * kBatchTuples;
  size_t next_id = 0;
  uint64_t last_dump = 0;
  uint64_t final_tuples = 0;

  // --- timed phase ---
  CheckLayout(options, pass->pinned_cpu);
  BeginTimed(*pass);
  const Counters counters0 = Counters::Read();
  const CpuMark cpu0 = ReadCpu(CurrentTid(), reactors, writers);
  bool ok = true;
  for (size_t r = cfg.warmup_rounds; ok && r < cfg.rounds; ++r) {
    const uint64_t round_start = NowNs();
    for (int e = 0; e < cfg.edges; ++e) {
      Edge& edge = *env.edges[static_cast<size_t>(e)];
      uint64_t apply_ns = 0;
      const uint64_t injected = NowNs();
      uint64_t started = injected;
      ++ops.attempted;
      edge.RunOnWriter([&] {
        started = NowNs();
        apply_ns = ApplyBatch(edge.engine(), pool.schema,
                              pool.Batch(FleetBatch(cfg.edges, r, e)));
      });
      // An increment is as late as its wait for the edge's writer.
      pass->late_ms.push_back(Ms(started - injected));
      if (pass->traced) {
        run->feed_apply_us.push_back(static_cast<double>(apply_ns) / 1e3);
      }
    }
    ok = PollRound(*env.uplink, &ops, &pass->polls);
    final_tuples = (r + 1) * fleet_batch_tuples;
    for (int q = 0; ok && q < cfg.probes_per_round; ++q) {
      ok = CountedProbe(reader, ids[next_id++ % ids.size()], &ops,
                        &pass->probes);
      // Every probe reads the aggregate of the round it follows.
      if (ok && pass->probes.back().tuples_seen != final_tuples) {
        VerifyFail("probe read a stale aggregate");
      }
    }
    const uint64_t now = NowNs();
    pass->segment_ns.push_back(static_cast<double>(now - round_start));
    if (pass->traced && now - last_dump >= 50000000ull) {
      last_dump = now;
      run->spans.Dump();
    }
  }
  const CpuMark cpu1 = ReadCpu(CurrentTid(), reactors, writers);
  pass->counters.AddSince(counters0, Counters::Read());
  pass->cpu.AddSince(cpu0, cpu1);
  pass->timed_ns = cpu1.wall - cpu0.wall;
  pass->tuples = (cfg.rounds - cfg.warmup_rounds) * fleet_batch_tuples;
  EndTimed(*pass, &run->spans);
  if (pass->traced) pass->ping_us = Pings(reader, &ops);

  // --- the pass's own checks ---
  std::vector<uint16_t> ports;
  for (const auto& edge : env.edges) ports.push_back(edge->port());
  auto refold = RefoldFromFullPulls(pool.schema, registrar, ports);
  env.hub->Stop();
  const QueryEngine& aggregate = env.hub->engine();
  if (!refold.ok()) {
    VerifyFail("full pulls: " + refold.status().ToString());
  } else {
    CompareFoldUnits(**refold, aggregate, "aggregate vs refold of full pulls");
    for (const Probe& probe : pass->probes) {
      if (probe.tuples_seen != final_tuples) continue;
      auto answer = (*refold)->AnswerEx(static_cast<QueryId>(probe.id));
      if (!answer.ok() || answer->estimate != probe.estimate ||
          answer->std_error != probe.std_error) {
        VerifyFail("aggregate probe differs from the full-pull refold");
      }
    }
  }
  // The fleet-wide answers and memory at the pass's end: exact for a seed.
  std::vector<double> estimates;
  for (QueryId id : env.queries.accuracy_ids) {
    auto answer = aggregate.Answer(id);
    estimates.push_back(answer.ok() ? *answer : -1);
  }
  const double synopsis_kb =
      static_cast<double>(aggregate.TotalSynopsisMemoryBytes()) / 1024.0;
  const bool first = run->first_states.empty();
  if (first) {
    run->first_estimates = estimates;
    run->synopsis_kb = synopsis_kb;
  } else if (estimates != run->first_estimates ||
             synopsis_kb != run->synopsis_kb) {
    VerifyFail("a pass's aggregate differs from the first pass's");
  }
  for (size_t e = 0; e < env.edges.size(); ++e) {
    env.edges[e]->Stop();
    auto served = env.edges[e]->engine().SerializeState();
    if (!served.ok()) {
      VerifyFail("edge state: " + served.status().ToString());
    } else if (first) {
      run->first_states.push_back(std::move(*served));
    } else if (*served != run->first_states[e]) {
      VerifyFail("edge " + std::to_string(e) +
                 " differs from the first pass's");
    }
  }
  return ok;
}

RunResult RunFleet(const FleetConfig& cfg, const StreamPool& pool,
                   const RunOptions& options) {
  RunResult result;
  Report& report = result.report;
  const Registrar registrar = FleetQueries;
  FleetRun run;
  run.ops = &result.ops;
  if (cfg.rounds * static_cast<size_t>(cfg.edges) != pool.num_batches() ||
      cfg.warmup_rounds >= cfg.rounds) {
    VerifyFail("pool does not fit the pass layout");
    return result;
  }
  const std::vector<Pass> passes = RunPasses(options, [&](Pass* pass) {
    return FleetPass(cfg, pool, options, &run, pass);
  });
  if (passes.empty()) return result;
  CheckPassesAgree(passes);

  // --- verification against in-process twins ---
  // Each edge equals its twin; the twins replay the delta pulls, whose
  // bytes must equal what crossed the wire in every round.
  std::vector<std::unique_ptr<TwinReplay>> twins;
  const std::vector<QueryId> shipped = ShippedIds(pool.schema, registrar);
  for (int e = 0; e < cfg.edges; ++e) {
    twins.push_back(
        std::make_unique<TwinReplay>(pool, registrar, false, shipped));
  }
  QuerySet queries = twins[0]->queries();
  ExactTwin exact(pool, twins[0]->engine(), queries.accuracy_ids);
  const std::vector<Uplink::Round>& polls = passes[0].polls;
  size_t poll = 0;
  for (size_t r = 0; r < cfg.rounds; ++r) {
    uint64_t bytes = 0;
    for (int e = 0; e < cfg.edges; ++e) {
      TwinReplay& twin = *twins[static_cast<size_t>(e)];
      const size_t batch = FleetBatch(cfg.edges, r, e);
      twin.Apply(batch);
      exact.Apply(batch);
      if (r + 1 == cfg.warmup_rounds) {
        twin.Bootstrap();
      } else if (r + 1 > cfg.warmup_rounds) {
        bytes += twin.DeltaPull();
        // Readout cost at the polled positions (the fleet's probes read
        // the aggregate, checked against the full-pull refold).
        if (e == 0) twin.TimeAnswers();
      }
    }
    if (r + 1 <= cfg.warmup_rounds) continue;
    if (poll >= polls.size() || polls[poll].wire_bytes != bytes) {
      VerifyFail("round " + std::to_string(poll) +
                 " shipped other bytes than the replayed deltas' " +
                 std::to_string(bytes));
    }
    ++poll;
  }
  for (int e = 0; e < cfg.edges; ++e) {
    auto mirrored = twins[static_cast<size_t>(e)]->engine().SerializeState();
    if (!mirrored.ok() || static_cast<size_t>(e) >= run.first_states.size() ||
        *mirrored != run.first_states[static_cast<size_t>(e)]) {
      VerifyFail("edge " + std::to_string(e) + " differs from its twin");
    }
  }
  exact.Score(run.first_estimates);
  ExactCounts counts = FirstPassWire(passes);
  counts.synopsis_kb = run.synopsis_kb;

  // --- metrics ---
  NotePasses(passes, &report);
  if (!options.trace) {
    ReportEndToEnd(passes, counts, &report);
    CheckAccuracy(exact, nullptr);
    return result;
  }
  CheckAccuracy(exact, &report);
  ReportTraced(passes, Headline::kPollP50, false, run.spans, &report);
  // No OBSERVE_BATCH crosses the wire here: the edges' feed is injected,
  // so the head-of-line apply is the injected ObserveStream.
  report.Set("net.observe_apply_us_p99", Percentile(run.feed_apply_us, 0.99),
             "us");
  twins[0]->ReportLayers(&report);
  DirectLayerTimings(pool, twins[0]->engine(), registrar, &report);
  return result;
}

// --------------------------------------------------------------- configs

SingleEdgeConfig EdgeIngestConfig() {
  SingleEdgeConfig cfg;
  cfg.registrar = EdgeIngestQueries;
  cfg.uplink_registrar = EdgeIngestQueries;
  // 8 Mi tuples a pass: a 2 Mi warm-up, then 6 Mi timed tuples (the DDoS
  // episode among them) polled every 256 Ki (24 polls).
  cfg.pool_batches = 2048;
  cfg.warmup_batches = 512;
  cfg.poll_every = 64;
  // 42 probes after each poll: 1008 a pass, enough for a p99.
  cfg.probes_per_poll = 42;
  return cfg;
}

SingleEdgeConfig TenantDashboardConfig() {
  SingleEdgeConfig cfg;
  cfg.registrar = TenantQueries;
  cfg.uplink_registrar = TenantUplinkQueries;
  // 1.5 Mi tuples a pass: a 256 Ki warm-up, then 320 timed batches
  // (~4.4 s at the offered rate) polled every 8 batches (40 polls of
  // ~35 ms).
  cfg.pool_batches = 384;
  cfg.warmup_batches = 64;
  cfg.poll_every = 8;
  cfg.open_loop = true;
  // About a quarter of the 1.06-1.20 Mtuples/s this query set sustains.
  // At half load the writer is busy ~45% of the time, so the QUERY median
  // sat on the knee between idle replies (~70 us) and replies queued
  // behind a batch apply (~1.7 ms) and swung 222-380 us with host speed.
  cfg.offered_mtps = 0.3;
  // A probe every ~2.7 ms: 1600 a pass. One in five is sent 1 ms after
  // a frame and so queued behind its apply, which puts the QUERY p90 at
  // the middle of those waits.
  cfg.probes_per_frame = 5;
  return cfg;
}

}  // namespace

bool WorkloadShape(const std::string& name, LoadShape* shape) {
  // The ingest thread also drives the uplink (and, on edge_ingest, the
  // probes); one reactor plus the writer serve it.
  if (name == "edge_ingest") {
    *shape = LoadShape{1, 1, 1, 2, 3};
    return true;
  }
  if (name == "tenant_dashboard") {  // plus the dashboards' connection
    *shape = LoadShape{1, 2, 1, 2, 3};
    return true;
  }
  if (name == "fleet_delta") {
    // Nine servers (eight edges and the aggregate), one reactor each. One
    // coordinating thread talks to one server at a time (feed, pull, fold
    // or probe), so one reactor and one writer run beside it.
    *shape = LoadShape{1, 1, 9, 2, 19};
    return true;
  }
  return false;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "edge_ingest") {
    const SingleEdgeConfig cfg = EdgeIngestConfig();
    is::NetflowGenerator gen(NetflowParams(options.seed, 4u << 20, 1u << 20));
    const StreamPool pool = MakePool(gen, cfg.pool_batches, true);
    return RunSingleEdge(cfg, pool, options);
  }
  if (options.workload == "tenant_dashboard") {
    const SingleEdgeConfig cfg = TenantDashboardConfig();
    is::OlapGenParams params;
    params.seed = options.seed;
    is::OlapGenerator gen(params);
    const StreamPool pool = MakePool(gen, cfg.pool_batches, true);
    return RunSingleEdge(cfg, pool, options);
  }
  // fleet_delta: 8 edges x 72 rounds = 2.25 Mi tuples a pass; the edges'
  // feed is injected, so the pool needs no frames.
  const FleetConfig cfg;
  is::NetflowGenerator gen(NetflowParams(options.seed, 1u << 20, 1u << 19));
  const StreamPool pool =
      MakePool(gen, cfg.rounds * static_cast<size_t>(cfg.edges), false);
  return RunFleet(cfg, pool, options);
}

}  // namespace perfbench
