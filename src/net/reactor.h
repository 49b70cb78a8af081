// Reactor: one epoll event loop owning a shard of the server's
// connections — the concurrency half of the serving path.
//
// Topology (see net/server.h for the whole picture): the thread running
// Server::Run() is the WRITER — it owns the listener and the engine, and
// nothing else ever touches either. N reactor threads own the accepted
// connections, sharded round-robin at accept time; a connection lives on
// exactly one reactor for its whole life, so per-connection state needs
// no locks. Reactors do all socket I/O, all frame decode/encode, and all
// request validation; the only thing they ship to the writer is a fully
// decoded, fully validated EngineOp. The writer applies ops in arrival
// order and posts Completions back; the reactor encodes each completion
// and writes responses out in strict per-connection FIFO order (the wire
// protocol's no-correlation-id contract).
//
// Request FIFO across the thread hop: every parsed request opens a Slot
// in the connection's slot deque. Engine-free requests (PING, METRICS,
// TRACE_DUMP, malformed payloads) complete their slot immediately on the
// reactor; engine-bound ones complete when the writer's Completion comes
// back. Only the contiguous completed prefix of the deque is ever
// encoded into the write buffer, so responses can never reorder even
// though local and remote completions race.
//
// Backpressure, two bounds:
//  * max_pipeline_depth caps open slots per connection; at the cap the
//    reactor stops parsing (and reading — bytes stay in the kernel), and
//    resumes when completions drain the deque. A client that pipelines
//    harder than the server can answer is flow-controlled by TCP.
//  * max_write_buffer_bytes caps pending response bytes; the response
//    that would cross it is replaced by RESOURCE_EXHAUSTED and the
//    connection closes once that flushes (net/server.h's slow-consumer
//    bound, unchanged).
// Responses for requests of one burst accumulate before flushing (see
// kFlushLowWaterBytes), so the write bound observes the same
// accumulate-then-flush semantics the single-threaded server had, and a
// pipelining client gets its whole window in one writev-sized burst.
//
// Shutdown handshake (driven by the writer):
//  1. BeginDrain(): the reactor stops reading new bytes, then acks via
//     Server::NotifyQuiesced() — after the ack, it will never post
//     another EngineOp.
//  2. The writer drains its op queue and posts the final completions.
//  3. RequestExit(deadline): the reactor keeps processing completions
//     and flushing until every connection's buffer is empty or the
//     deadline passes, then closes everything and exits.

#ifndef IMPLISTAT_NET_REACTOR_H_
#define IMPLISTAT_NET_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stream/schema.h"
#include "stream/types.h"
#include "stream/value_dictionary.h"

namespace implistat::net {

class Server;

/// Metric handles shared by the writer and every reactor. All handles
/// point at atomics, so any thread may bump them; registered once,
/// process-wide (the registry dedupes by name+label).
struct NetMetrics {
  // Per-type arrays are indexed by MsgType value; slot 0 is unused.
  static constexpr int kMaxType = static_cast<int>(MsgType::kSnapshotDelta);
  obs::Counter* requests_by_type[kMaxType + 1];
  obs::Histogram* duration_by_type[kMaxType + 1];
  obs::Histogram* request_bytes_by_type[kMaxType + 1];
  obs::Histogram* response_bytes_by_type[kMaxType + 1];
  obs::Counter* bytes_rx;
  obs::Counter* bytes_tx;
  obs::Counter* frame_errors;
  obs::Gauge* connections;
  obs::Gauge* write_buffer_bytes;
  obs::Gauge* writer_queue_depth;

  static const NetMetrics& Get();
};

/// One validated engine-bound request, decoded by a reactor and shipped
/// to the writer. Everything the writer needs is pre-chewed: for an
/// OBSERVE_BATCH the tuples arrive as cardinality-checked row-major ids
/// (net/batch_decode.h), so the writer's work is pure engine apply.
struct EngineOp {
  MsgType type = MsgType::kPing;
  int reactor = 0;
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  /// The reactor's handle-span context; parents server.reactor_handoff.
  obs::SpanContext trace;
  /// CLOCK_MONOTONIC ns at handoff, for queue-wait accounting.
  uint64_t enqueue_ns = 0;
  /// OBSERVE_BATCH: validated row-major value ids.
  std::vector<ValueId> flat;
  /// QUERY: requested ids (empty = every registered query).
  std::vector<uint32_t> query_ids;
  /// SNAPSHOT / SNAPSHOT_DELTA / MERGE: target query.
  uint32_t query_id = 0;
  /// SNAPSHOT_DELTA: the epoch the caller last acked (0 = bootstrap).
  uint64_t since_epoch = 0;
  /// SNAPSHOT_DELTA: kDeltaCap* bits.
  uint8_t capabilities = 0;
  /// MERGE: the shipped estimator state.
  std::string snapshot;
  /// SUBSCRIBE: CREATE TRIGGER statements to install first.
  std::vector<std::string> statements;
  /// SUBSCRIBE: trigger-name filter (empty = all, present and future).
  std::vector<std::string> trigger_names;
  /// UNSUBSCRIBE shipped by the reactor itself when a subscribed
  /// connection dies — prunes the writer's registry; the completion it
  /// generates finds the connection gone and is dropped.
  bool implicit = false;
};

/// The writer's answer to one EngineOp, routed back to the reactor that
/// owns (conn_id, seq).
struct Completion {
  uint64_t conn_id = 0;
  uint64_t seq = 0;
  Status status;
  std::string body;
  /// Close the connection once this response flushes (SHUTDOWN ack).
  bool close_conn = false;
};

/// One encoded TRIGGER_FIRED push frame bound for a subscribed
/// connection. The writer encodes the frame (it owns the trigger engine
/// and the firing's trace context); the reactor only appends bytes —
/// whole frames, so responses and pushes never interleave mid-frame.
struct TriggerPush {
  uint64_t conn_id = 0;
  std::string frame;
};

/// The slice of ServerOptions a reactor needs, plus read-only views of
/// the engine's immutable-while-serving schema and dictionaries — the
/// one sanctioned way a reactor "sees" the engine (pure reads of state
/// that cannot change while the server runs).
struct ReactorConfig {
  size_t max_frame_bytes = 64u << 20;
  size_t max_write_buffer_bytes = 4u << 20;
  size_t max_pipeline_depth = 128;
  int64_t idle_timeout_ms = 0;
  const Schema* schema = nullptr;
  const std::vector<ValueDictionary>* dicts = nullptr;
};

class Reactor {
 public:
  /// Responses accumulate in the write buffer while earlier requests are
  /// still outstanding; a flush happens when the slot deque empties, the
  /// buffer crosses this mark, or the connection is closing. Batches one
  /// pipelined window into one send() burst.
  static constexpr size_t kFlushLowWaterBytes = 64u << 10;

  Reactor(Server* server, int index, ReactorConfig config);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Creates the epoll set and wake eventfd (no thread yet).
  Status Init();
  /// Spawns the loop thread. Call after Init() succeeded.
  void Start();
  void Join();

  // --- cross-thread entry points (called by the writer) ---

  /// Hands over an accepted, non-blocking socket; the reactor owns the
  /// fd from here on.
  void AddConnection(int fd);
  /// Delivers a batch of writer completions (one wakeup for the batch).
  void PostCompletions(std::vector<Completion> completions);
  /// Delivers encoded TRIGGER_FIRED frames for this reactor's subscribed
  /// connections (one wakeup for the batch). Frames for connections that
  /// closed in the meantime are dropped.
  void PostPushes(std::vector<TriggerPush> pushes);
  /// Drain step 1: stop reading; ack via Server::NotifyQuiesced().
  void BeginDrain();
  /// Drain step 3: flush and exit by `deadline_ms` (CLOCK_MONOTONIC).
  void RequestExit(int64_t deadline_ms);

  int index() const { return index_; }

 private:
  /// One parsed request awaiting its response. `seq` is dense per
  /// connection, so a slot's deque position is seq - front.seq.
  struct Slot {
    uint64_t seq = 0;
    MsgType type = MsgType::kPing;
    uint64_t start_ns = 0;
    obs::SpanContext trace;  // handle-span ctx; parents encode/write
    bool done = false;
    bool close_conn = false;
    std::string frame;  // encoded response frame, valid once done
  };

  struct Conn {
    Conn(uint64_t id_in, int fd_in, size_t max_frame_bytes)
        : id(id_in), fd(fd_in), decoder(max_frame_bytes) {}

    uint64_t id;
    int fd;
    FrameDecoder decoder;
    std::string write_buf;
    size_t write_pos = 0;
    std::deque<Slot> slots;
    uint64_t next_seq = 0;
    bool close_after_flush = false;
    bool read_paused = false;
    /// Saw a SUBSCRIBE on this connection; on close, the reactor ships
    /// an implicit UNSUBSCRIBE so the writer's registry never leaks.
    bool subscribed = false;
    /// Set instead of erasing mid-callback; reaped at loop safe points.
    bool dead = false;
    int64_t last_active_ms = 0;
    /// Context of the most recently completed request; parents the write
    /// span (which runs after the handle span has closed).
    obs::SpanContext last_trace;

    size_t pending() const { return write_buf.size() - write_pos; }
  };

  void Loop();
  void ProcessInbox();
  void HandleConnEvent(uint64_t id, uint32_t events);
  void HandleReadable(Conn* conn);
  Status ParseFrames(Conn* conn);
  void HandleFrame(Conn* conn, const FrameView& view);
  void CompleteSlot(Conn* conn, uint64_t seq, const Status& status,
                    std::string_view body, bool close_conn);
  void DeliverPush(Conn* conn, const std::string& frame);
  void AppendCompletedPrefix(Conn* conn);
  void MaybeFlush(Conn* conn);
  Status FlushWrites(Conn* conn);
  /// Flushes pending_ops_ to the writer (one lock, one wakeup).
  void ShipOps();
  void ReapIfDead(uint64_t id);
  void SweepIdle(int64_t now_ms);
  int EpollTimeoutMs(int64_t now_ms, bool exiting) const;

  Server* server_;
  const int index_;
  const std::string index_label_;
  ReactorConfig config_;
  int epoll_fd_ = -1;
  int event_fd_ = -1;
  std::thread thread_;

  std::mutex inbox_mu_;
  std::vector<int> inbox_fds_;
  std::vector<Completion> inbox_completions_;
  std::vector<TriggerPush> inbox_pushes_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> exiting_{false};
  std::atomic<int64_t> exit_deadline_ms_{0};
  bool drain_acked_ = false;  // loop thread only

  uint64_t next_conn_id_ = 1;  // 0 is the eventfd's epoll token
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;
  std::vector<EngineOp> pending_ops_;  // batched per event round
  size_t local_pending_bytes_ = 0;     // this reactor's share of the gauge

  const NetMetrics* metrics_ = nullptr;
  obs::Gauge* reactor_connections_ = nullptr;
  obs::Counter* reactor_wakeups_ = nullptr;
};

}  // namespace implistat::net

#endif  // IMPLISTAT_NET_REACTOR_H_
