// The serving benchmark's building blocks: pre-encoded input pools, a
// served edge (engine + net::Server on its own writer thread), QUERY
// probes, and the uplink (an AggregatorSupervisor polled on a synthetic
// clock with a timing fold runner). workloads.cc composes them into the
// three workloads; ledger.cc times the layers underneath from outside.

#ifndef IMPLISTAT_PERFBENCH_BENCH_H_
#define IMPLISTAT_PERFBENCH_BENCH_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/supervisor.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "stream/tuple_stream.h"
#include "util.h"

namespace perfbench {

namespace is = implistat;

/// Tuples per OBSERVE_BATCH frame.
inline constexpr size_t kBatchTuples = 4096;

/// A pre-generated stream cut into batches, each optionally also
/// pre-encoded as a complete OBSERVE_BATCH request frame (id encoding),
/// so nothing is generated or encoded while a run is timed. A pass
/// streams the pool once; nothing is replayed into the same engine.
struct StreamPool {
  is::Schema schema;
  size_t width = 0;
  size_t batches = 0;
  std::vector<is::ValueId> flat;    // row-major tuples
  std::vector<std::string> frames;  // one request frame per batch, or none

  size_t num_batches() const { return batches; }
  /// Copy of batch `i`'s ids (batches are kBatchTuples rows).
  std::vector<is::ValueId> Batch(size_t i) const;
  /// The OBSERVE_BATCH payload of batch `i`, encoded afresh.
  std::string Payload(size_t i) const;
};

/// Draws `batches` batches of rows from `gen`, encoding each as a frame
/// when `frames` is set.
StreamPool MakePool(is::TupleStream& gen, size_t batches, bool frames);

/// What a workload registered on one engine.
struct QuerySet {
  std::vector<is::QueryId> probe_ids;     // tenants probed in rotation
  std::vector<is::QueryId> accuracy_ids;  // answers checked against exact
  int tenants = 0;
  int derived = 0;
  int triggers = 0;
};

/// Registers a workload's queries (and, when `triggers`, its CQL
/// triggers) on an engine. The order is fixed, so every engine built by
/// one registrar assigns the same query and synopsis ids.
using Registrar =
    std::function<is::Status(is::QueryEngine&, bool triggers, QuerySet*)>;

/// One served engine: a net::Server with one reactor whose Run() loop
/// (the engine's single writer) runs on a thread owned here.
class Edge {
 public:
  explicit Edge(const is::Schema& schema);
  ~Edge();
  Edge(const Edge&) = delete;
  Edge& operator=(const Edge&) = delete;

  is::Status Start();
  /// Drains the server and joins its writer; the engine is then safe to
  /// read from any thread.
  void Stop();

  is::QueryEngine& engine() { return engine_; }
  is::net::Server& server() { return *server_; }
  uint16_t port() const { return server_->port(); }
  int writer_tid() const { return writer_tid_.load(); }
  int reactor_tid() const { return reactor_tid_; }

  /// Runs `fn` on the writer thread and waits for it to finish.
  void RunOnWriter(const std::function<void()>& fn);

 private:
  is::QueryEngine engine_;
  std::unique_ptr<is::net::Server> server_;
  std::thread loop_;
  std::atomic<int> writer_tid_{0};
  int reactor_tid_ = 0;
  bool running_ = false;
};

/// One answered QUERY probe.
struct Probe {
  uint32_t id = 0;
  uint64_t tuples_seen = 0;
  double estimate = 0;
  double std_error = 0;
  double lower = 0;
  double upper = 0;
  bool derived = false;
  uint64_t sent_ns = 0;
  double rtt_us = 0;
};

/// Sends one QUERY for `id` and records the answer; false on failure.
bool ProbeOnce(is::net::Client& client, uint32_t id, std::vector<Probe>* out);

/// The uplink: an AggregatorSupervisor over `peers` with deltas on,
/// polled on a synthetic clock that advances one poll interval per
/// round (so every peer is due every round). Folds run through a timing
/// runner: inline on the polling thread, or injected into `fold_host`
/// (the server that serves the aggregate) and awaited.
class Uplink {
 public:
  Uplink(is::QueryEngine* aggregate,
         std::vector<is::cluster::PeerConfig> peers,
         is::net::Server* fold_host);
  Uplink(const Uplink&) = delete;
  Uplink& operator=(const Uplink&) = delete;

  is::Status Init() { return supervisor_->Init(); }

  struct Round {
    double poll_ms = 0;
    double fold_ms = 0;
    uint64_t wire_bytes = 0;  // SNAPSHOT_DELTA and SNAPSHOT state bytes
    is::cluster::PollStats stats;
  };
  Round Poll();

 private:
  std::unique_ptr<is::cluster::AggregatorSupervisor> supervisor_;
  int64_t clock_ms_ = 0;
  uint64_t fold_ns_ = 0;
  is::obs::Counter* delta_bytes_;
  is::obs::Counter* snapshot_bytes_;
};

/// Spans collected during a traced phase, deduplicated across dumps of
/// the per-thread rings.
class SpanCollector {
 public:
  /// Copies the rings; call periodically (rings hold 2048 spans each).
  void Dump();
  const std::vector<is::obs::SpanRecord>& spans() const { return spans_; }

 private:
  std::vector<is::obs::SpanRecord> spans_;
  std::vector<uint64_t> seen_;  // sorted span ids
};

/// Refolds full snapshots pulled from `ports` (one edge each) for every
/// fold unit of `registrar`'s query set into a fresh engine; the result
/// must equal the supervised aggregate byte for byte.
is::StatusOr<std::unique_ptr<is::QueryEngine>> RefoldFromFullPulls(
    const is::Schema& schema, const Registrar& registrar,
    const std::vector<uint16_t>& ports);

/// Compares every fold unit's estimator state of two engines built by the
/// same registrar; records a verification failure on any difference.
void CompareFoldUnits(const is::QueryEngine& expected,
                      const is::QueryEngine& actual, const char* what);

/// Feeds one batch to an engine the way the server's writer applies an
/// OBSERVE_BATCH; returns nanoseconds spent inside ObserveStream.
uint64_t ApplyBatch(is::QueryEngine& engine, const is::Schema& schema,
                    std::vector<is::ValueId> ids);

}  // namespace perfbench

#endif  // IMPLISTAT_PERFBENCH_BENCH_H_
