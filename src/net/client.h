// Client: blocking request/response connection to an implistat server.
//
// One method per protocol request (net/wire.h); each sends a frame and
// blocks until the matching response arrives (responses come back in
// request order, so no correlation bookkeeping). The outer Status/
// StatusOr reports transport or wire-format trouble; a server-side
// refusal (bad query id, unknown value, backpressure) comes back as the
// decoded Status itself.
//
// Deadlines: ClientOptions carries a connect timeout and a per-request
// deadline. A request that misses its deadline fails with
// kDeadlineExceeded — and because the response may still be in flight,
// the connection is desynchronized and marked lost.
//
// Failure taxonomy (what the aggregation tier keys its retry logic on):
//  * kUnavailable    — CONNECTION_LOST: the transport failed (send/recv
//    error, peer hung up) or a previous failure already poisoned the
//    connection. Reconnect() and retry is safe.
//  * kDeadlineExceeded — the per-request deadline fired. Also marks the
//    connection lost (a late response would answer the wrong request).
//  * anything else from the outer Status — a corrupt frame, or a
//    malformed or out-of-order response: the peer speaks the protocol
//    wrongly. Reconnecting may not help; report it rather than hot-loop.
// After any of these, connection_lost() is true and every call returns
// kUnavailable until Reconnect() succeeds — one Client object serves a
// peer across arbitrarily many peer restarts. The one failure that
// leaves the connection usable is a WaitForTrigger() timeout: nothing
// was in flight, so the stream is still aligned.
//
// One request path: Submit() ships a request without waiting; Await()
// blocks for the oldest outstanding response; RoundTrip() is Submit +
// Await under one deadline. Responses arrive in request order (the wire
// protocol's FIFO contract), so correlation is positional — the client
// keeps a deque of expected types and matches strictly in order. The
// in-flight window is bounded by ClientOptions::max_in_flight (keep it
// at or under the server's max_pipeline_depth, or the server pauses
// reading and the pipeline degrades to TCP flow control). Every send
// (Submit, RoundTrip, SendRaw) goes through one path that never
// deadlocks against a full send buffer: while blocked on POLLOUT it
// also drains POLLIN into the decode buffer, so the server can always
// make progress. Every read (Await, RoundTrip, WaitForTrigger) takes
// frames from one loop. Mixing styles is refused: RoundTrip() while
// requests are in flight fails rather than desynchronize.
//
// Not thread-safe: one connection, one thread. Open several clients for
// concurrency — the server multiplexes them.

#ifndef IMPLISTAT_NET_CLIENT_H_
#define IMPLISTAT_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/messages.h"
#include "net/wire.h"

namespace implistat::net {

struct ClientOptions {
  /// Largest response frame to accept (metrics text and estimator
  /// snapshots are the big ones).
  size_t max_frame_bytes = 64u << 20;
  /// TCP connect timeout in milliseconds; 0 blocks on the OS default
  /// (minutes against a black-holed peer — supervisors want seconds).
  int64_t connect_timeout_ms = 0;
  /// Per-request deadline in milliseconds, covering send + wait + recv of
  /// one RoundTrip; 0 means no deadline. A hung server then costs at most
  /// one deadline, not a wedged caller. For pipelined use, the deadline
  /// applies separately to each Submit (send) and Await (wait + recv).
  int64_t request_timeout_ms = 0;
  /// Pipelining window: Submit() refuses once this many requests are
  /// outstanding (RoundTrip ignores it). Keep at or under the server's
  /// max_pipeline_depth.
  size_t max_in_flight = 64;
};

class Client {
 public:
  /// Connects to `host:port` (IPv4 dotted quad or "localhost").
  static StatusOr<Client> Connect(const std::string& host, uint16_t port,
                                  ClientOptions options = ClientOptions());

  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client();

  /// Drops the current connection (if any) and dials the same host:port
  /// with the same options again. Clears connection_lost() on success; on
  /// failure the client stays lost and Reconnect() may be retried.
  Status Reconnect();

  /// True once a transport failure, deadline, or protocol violation has
  /// poisoned the connection; every request refuses with kUnavailable
  /// until Reconnect() succeeds.
  bool connection_lost() const { return lost_ || fd_ < 0; }

  /// Liveness probe.
  Status Ping();

  /// Ships a batch of tuples; returns the server's total tuple count
  /// after ingesting it.
  StatusOr<uint64_t> ObserveBatch(const ObserveBatchRequest& request);

  /// Fetches estimates (and error bars) for the given query ids, or for
  /// every registered query when `ids` is empty.
  StatusOr<QueryResponse> Query(const std::vector<uint32_t>& ids = {});

  /// Pulls query `id`'s serialized estimator state — the kilobyte
  /// summary an edge ships instead of its stream — together with the
  /// edge's epoch (its tuples_seen at serialize time). A read only: it
  /// sets no delta baseline, so SnapshotDelta cannot name its epoch.
  StatusOr<SnapshotResponse> Snapshot(uint32_t query_id);

  /// Pulls query `id`'s state as a delta against `since_epoch`: the
  /// response is either a kDeltaSnapshot patch or — when the server
  /// holds no baseline for that epoch — a full snapshot, flagged by
  /// DeltaSnapshotResponse::is_delta. `since_epoch` 0 asks for a full
  /// snapshot (bootstrap); `capabilities` advertises kDeltaCap* codec
  /// support.
  StatusOr<DeltaSnapshotResponse> SnapshotDelta(uint32_t query_id,
                                                uint64_t since_epoch,
                                                uint8_t capabilities);

  /// Folds a snapshot (from this or another node's Snapshot call) into
  /// the server's query `id`.
  Status Merge(uint32_t query_id, std::string_view snapshot);

  /// The server's metrics registry as Prometheus text.
  StatusOr<std::string> Metrics();

  /// The server's recent spans as Chrome trace_event JSON (loads in
  /// Perfetto). An empty traceEvents list means the server was built
  /// with tracing compiled out or has recorded nothing yet.
  StatusOr<std::string> TraceDump();

  /// Asks the server to write its engine checkpoint; returns the path.
  StatusOr<std::string> Checkpoint();

  /// Asks the server to drain and exit.
  Status Shutdown();

  // --- trigger subscriptions ---

  /// Called for every TRIGGER_FIRED push the client demultiplexes —
  /// pushes can surface inside any blocking read (RoundTrip, Await,
  /// WaitForTrigger), so the callback must not call back into this
  /// client. The second argument is the server's delivery trace context
  /// (invalid when the server sent none).
  using TriggerCallback =
      std::function<void(const TriggerFired&, const obs::SpanContext&)>;
  void set_on_trigger(TriggerCallback callback) {
    on_trigger_ = std::move(callback);
  }

  /// Installs the request's CREATE TRIGGER statements (if any) and
  /// subscribes this connection to firings. Later pushes are handed to
  /// the on_trigger callback.
  StatusOr<SubscribeResponse> Subscribe(const SubscribeRequest& request);

  /// Drops this connection's subscription.
  Status Unsubscribe();

  /// Blocks until at least one TRIGGER_FIRED push has been dispatched to
  /// the callback, or `timeout_ms` elapses (kDeadlineExceeded, and the
  /// connection stays usable); negative means no timeout. Any other
  /// failure poisons the connection. Refuses (kFailedPrecondition) while
  /// pipelined requests are in flight — their Awaits already dispatch
  /// pushes.
  Status WaitForTrigger(int64_t timeout_ms = -1);

  /// Submit + Await of one request under one deadline, inside a
  /// client.roundtrip span whose context rides the frame. Building block
  /// for the typed calls above. Refuses (kFailedPrecondition) while
  /// pipelined requests are in flight — Await() them first.
  StatusOr<std::string> RoundTrip(MsgType type, std::string_view payload);

  // --- pipelined mode ---

  /// Ships one request without waiting for its response. Refuses with
  /// kResourceExhausted when the in-flight window is full (Await() to
  /// make room). `frame` must be a pre-encoded request frame when
  /// `pre_encoded` is true (EncodeRequestFrame; benchmarks pre-encode
  /// outside the timed region), otherwise it is the request payload.
  Status Submit(MsgType type, std::string_view bytes,
                bool pre_encoded = false);

  /// Blocks for the oldest in-flight response and returns its body (the
  /// embedded server status is unwrapped, exactly like RoundTrip).
  /// Refuses (kFailedPrecondition) when nothing is in flight.
  StatusOr<std::string> Await();

  /// Outstanding pipelined requests (submitted, not yet awaited).
  size_t in_flight() const { return pipeline_.size(); }

  /// Writes raw bytes to the socket, bypassing framing and deadlines —
  /// robustness tests inject garbage and truncations with this.
  Status SendRaw(std::string_view bytes);

  /// The underlying socket (tests: abrupt disconnects, timeouts).
  int fd() const { return fd_; }

 private:
  Client(int fd, std::string host, uint16_t port, ClientOptions options);

  /// Marks the connection unusable and passes `status` through.
  Status MarkLost(Status status);

  // Every `deadline_ms` below is an absolute CLOCK_MONOTONIC time; -1
  // means none.
  int64_t RequestDeadlineMs() const;
  /// The one send path: writes all of `bytes`, draining inbound bytes
  /// into the decoder while the send buffer is full (see header
  /// comment). Any failure marks the connection lost.
  Status Send(std::string_view bytes, int64_t deadline_ms);
  /// The one read path: the next whole frame, from the decoder first,
  /// then from the socket. Marks nothing lost; callers decide what a
  /// failure means.
  StatusOr<Frame> NextFrame(int64_t deadline_ms);
  /// The next response, which must be of `expected_type`; dispatches
  /// pushes met on the way. Any failure marks the connection lost.
  StatusOr<Frame> ReadResponse(MsgType expected_type, int64_t deadline_ms);
  /// Sends an encoded request frame and queues its expected response.
  Status SubmitFrame(MsgType type, std::string_view frame,
                     int64_t deadline_ms);
  /// Reads the oldest queued response and unwraps its embedded status.
  StatusOr<std::string> AwaitResponse(int64_t deadline_ms);
  /// Decodes a demultiplexed TRIGGER_FIRED frame and runs the callback.
  /// A malformed push is a protocol violation and marks the connection
  /// lost.
  Status DispatchTriggerPush(const Frame& frame);

  int fd_ = -1;
  bool lost_ = false;
  std::string host_;
  uint16_t port_ = 0;
  ClientOptions options_;
  std::unique_ptr<FrameDecoder> decoder_;
  std::deque<MsgType> pipeline_;  // expected response types, FIFO
  TriggerCallback on_trigger_;    // null drops pushes on the floor
};

}  // namespace implistat::net

#endif  // IMPLISTAT_NET_CLIENT_H_
