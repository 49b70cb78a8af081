// Request/response payload codecs for the serving protocol (net/wire.h).
//
// Payloads are plain serde byte strings — no nested envelope (the frame
// already carries magic/version/CRC). Every decoder validates lengths and
// counts against the bytes actually present, so a hostile payload yields
// a Status, never an allocation balloon or an overread.

#ifndef IMPLISTAT_NET_MESSAGES_H_
#define IMPLISTAT_NET_MESSAGES_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "stream/types.h"
#include "util/serde.h"

namespace implistat::net {

// --- OBSERVE_BATCH ---------------------------------------------------------
//
// Two tuple encodings, picked by the first byte:
//  * kIds: rows of varint value ids, width values per row — the
//    constrained-edge fast path (edges are dictionary-coded already;
//    synthetic generators mint ids directly).
//  * kValues: rows of length-prefixed value strings. The server interns
//    each through its dictionaries with Find (never GetOrAdd — itemset
//    packers sized at registration must stay sound), so a value outside
//    the server's universe is a clean InvalidArgument, and matching rows
//    decode to the same ids regardless of client-side interning order.

enum class ObserveEncoding : uint8_t { kIds = 0, kValues = 1 };

struct ObserveBatchRequest {
  ObserveEncoding encoding = ObserveEncoding::kIds;
  uint32_t width = 0;
  /// kIds: row-major value ids, num_tuples() * width entries.
  std::vector<ValueId> ids;
  /// kValues: row-major value strings, num_tuples() * width entries.
  std::vector<std::string> values;

  size_t num_tuples() const {
    const size_t cells =
        encoding == ObserveEncoding::kIds ? ids.size() : values.size();
    return width == 0 ? 0 : cells / width;
  }
};

/// The server decodes with DecodeObserveBatchInto (net/batch_decode.h).
std::string EncodeObserveBatchRequest(const ObserveBatchRequest& request);

/// Response body: varint tuples_seen (the server's total after the batch).
std::string EncodeObserveBatchResponse(uint64_t tuples_seen);
StatusOr<uint64_t> DecodeObserveBatchResponse(std::string_view body);

// --- QUERY -----------------------------------------------------------------

/// Request body: varint count of query ids, then the ids; count 0 asks
/// for every registered query.
std::string EncodeQueryRequest(const std::vector<uint32_t>& ids = {});
StatusOr<std::vector<uint32_t>> DecodeQueryRequest(std::string_view payload);

struct QueryResult {
  uint32_t id = 0;
  std::string label;
  std::string estimator_name;
  /// The query's answer (S, or ~S for complement queries).
  double estimate = 0;
  /// 1σ error bar on the implication-count estimate (leave-one-bitmap-out
  /// jackknife for NIPS/CI, 0 for exact); negative when the estimator
  /// cannot quantify its uncertainty. For derived answers, the bound
  /// half-width.
  double std_error = -1;
  uint64_t memory_bytes = 0;
  /// True when the answer came from entailment bounds over existing
  /// synopses instead of a dedicated estimator.
  bool derived = false;
  /// The entailment interval; only meaningful when derived.
  double lower = 0;
  double upper = 0;
};

struct QueryResponse {
  uint64_t tuples_seen = 0;
  std::vector<QueryResult> results;
  /// Server-side caveats about the answers — an aggregator lists peers
  /// whose contribution is excluded as STALE here, so a reader knows the
  /// estimate is a partial view. Empty on healthy nodes.
  std::vector<std::string> warnings;
};

/// Response body: varint tuples_seen, the results (each ending in its
/// derivation section: u8 derived flag, double lower, double upper),
/// then the warnings.
std::string EncodeQueryResponse(const QueryResponse& response);
StatusOr<QueryResponse> DecodeQueryResponse(std::string_view body);

// --- SNAPSHOT / MERGE ------------------------------------------------------

/// SNAPSHOT request body: varint query id. Response body: varint epoch,
/// then the raw estimator snapshot envelope (SerializeState bytes).
std::string EncodeSnapshotRequest(uint32_t query_id);
StatusOr<uint32_t> DecodeSnapshotRequest(std::string_view payload);

/// A shipped snapshot plus the edge's epoch — the server's tuples_seen at
/// serialize time. The epoch keys replace-then-refold at an aggregator:
/// an unchanged epoch means an unchanged snapshot (skip the refold), and
/// a regressed epoch flags an edge that restarted from a checkpoint.
struct SnapshotResponse {
  uint64_t epoch = 0;
  std::string state;
};

std::string EncodeSnapshotResponse(uint64_t epoch, std::string_view state);
StatusOr<SnapshotResponse> DecodeSnapshotResponse(std::string_view body);

// --- SNAPSHOT_DELTA --------------------------------------------------------
//
// A snapshot pull keyed by the epoch the caller last acked. The server
// answers with a kDeltaSnapshot patch (src/delta/delta.h) when the
// queried estimator still holds a baseline for that epoch, and with a
// full snapshot otherwise — a caller never has to guess which resync
// path to take, the mode byte says so.

/// Capability bit: the caller can decode RLE-compressed delta bodies.
inline constexpr uint8_t kDeltaCapRle = 0x01;

struct DeltaSnapshotRequest {
  uint32_t query_id = 0;
  /// The epoch of the state the caller holds (a previous response's
  /// epoch); 0 asks for a full snapshot unconditionally (bootstrap).
  uint64_t since_epoch = 0;
  /// kDeltaCap* bits.
  uint8_t capabilities = 0;
};

std::string EncodeDeltaSnapshotRequest(const DeltaSnapshotRequest& request);
StatusOr<DeltaSnapshotRequest> DecodeDeltaSnapshotRequest(
    std::string_view payload);

struct DeltaSnapshotResponse {
  /// True: `state` is a kDeltaSnapshot envelope patching since_epoch ->
  /// epoch. False: `state` is a full snapshot envelope (resync or
  /// bootstrap).
  bool is_delta = false;
  /// The server's tuples_seen at serialize time — what the caller acks
  /// as since_epoch on its next pull.
  uint64_t epoch = 0;
  std::string state;
};

std::string EncodeDeltaSnapshotResponse(const DeltaSnapshotResponse& response);
StatusOr<DeltaSnapshotResponse> DecodeDeltaSnapshotResponse(
    std::string_view body);

/// MERGE request body: varint query id, then the snapshot bytes verbatim
/// to the end of the payload. Response body: empty.
std::string EncodeMergeRequest(uint32_t query_id, std::string_view snapshot);
StatusOr<std::pair<uint32_t, std::string_view>> DecodeMergeRequest(
    std::string_view payload);

// --- CHECKPOINT ------------------------------------------------------------

/// Request body: empty. Response body: length-prefixed path written.
std::string EncodeCheckpointResponse(std::string_view path);
StatusOr<std::string> DecodeCheckpointResponse(std::string_view body);

// --- SUBSCRIBE / UNSUBSCRIBE / TRIGGER_FIRED -------------------------------
//
// SUBSCRIBE optionally installs CREATE TRIGGER statements (compiled on
// the engine thread against the registered query labels), then marks the
// connection as a firing subscriber. TRIGGER_FIRED frames are pushed
// unsolicited to subscribed connections only — a connection that never
// subscribes never sees one (see wire.h).

struct SubscribeRequest {
  /// CREATE TRIGGER statements to install before subscribing; may be
  /// empty to subscribe to triggers installed elsewhere.
  std::vector<std::string> statements;
  /// Trigger names to subscribe to; empty = all triggers, present and
  /// future.
  std::vector<std::string> triggers;
};

std::string EncodeSubscribeRequest(const SubscribeRequest& request);
StatusOr<SubscribeRequest> DecodeSubscribeRequest(std::string_view payload);

/// Response body: how many statements were installed and how many armed
/// triggers the subscription currently matches.
struct SubscribeResponse {
  uint64_t installed = 0;
  uint64_t matched = 0;
};

std::string EncodeSubscribeResponse(const SubscribeResponse& response);
StatusOr<SubscribeResponse> DecodeSubscribeResponse(std::string_view body);

// UNSUBSCRIBE request body: empty (drops the connection's subscription
// wholesale). Response body: empty.

/// One firing, pushed from server to subscriber. The delivery trace
/// context rides the frame extension block, not this payload.
struct TriggerFired {
  std::string trigger;   // CREATE TRIGGER name
  uint64_t epoch = 0;    // server tuples_seen at the firing evaluation
  double value = 0.0;    // evaluated WHEN-expression value
};

std::string EncodeTriggerFired(const TriggerFired& fired);
StatusOr<TriggerFired> DecodeTriggerFired(std::string_view payload);

// PING, METRICS and SHUTDOWN need no codecs: empty request bodies, and
// METRICS answers with the raw Prometheus text.

}  // namespace implistat::net

#endif  // IMPLISTAT_NET_MESSAGES_H_
