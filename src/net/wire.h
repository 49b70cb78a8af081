// Wire protocol framing for the implistat serving layer.
//
// A frame is a length-prefixed envelope (util/envelope.h) — the same
// magic / version / tag / payload-length / CRC32C discipline that guards
// checkpoints, under a distinct magic so a frame can never be mistaken
// for a snapshot file (or vice versa):
//
//   offset  field
//   ------  -----------------------------------------------------------
//   0       frame length N (little-endian u32; bytes that follow)
//   4       magic "IMPW" (little-endian u32 0x57504d49)
//   8       protocol version (varint; exactly kWireProtocolVersion)
//   ..      message type (1 byte; high bit set on responses)
//   ..      payload length (varint; redundant with N, cross-checked)
//   ..      payload bytes: extension block, then the message payload
//   4+N-4   CRC32C (little-endian u32) over bytes [4, 4+N-4)
//
// The outer length prefix lets a stream reader buffer exactly one frame
// before validating it; the inner envelope then rejects truncation,
// bit-flips, version skew and length mismatch exactly like a corrupt
// checkpoint — decode goes into temporaries, the connection state never
// partially mutates. Corrupt frames are connection-fatal: a peer that
// fails CRC once cannot be trusted to be in sync again.
//
// There is one dialect: a frame stamped with any other protocol version
// fails the envelope's exact version check ("frame: unsupported format
// version N (this build reads version M)") and, like any other corrupt
// frame, closes the connection.
//
// Requests and responses travel in strict order on a connection (the
// server is a single-threaded event loop), so no correlation id is
// needed: the k-th response answers the k-th request. Responses carry a
// Status header in the payload (see EncodeResponsePayload).

#ifndef IMPLISTAT_NET_WIRE_H_
#define IMPLISTAT_NET_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/trace.h"
#include "util/envelope.h"
#include "util/serde.h"

namespace implistat::net {

/// Request types of the serving protocol. Part of the wire format —
/// append only, never renumber. The response to type T is tagged
/// T | kResponseFlag.
enum class MsgType : uint8_t {
  kPing = 1,          // liveness probe; empty payload both ways
  kObserveBatch = 2,  // packed tuples -> engine ObserveStream
  kQuery = 3,         // estimates + error bars per registered query
  kSnapshot = 4,      // ship one estimator's serialized state
  kMerge = 5,         // fold a shipped estimator state into a query
  kMetrics = 6,       // Prometheus text of the global registry
  kCheckpoint = 7,    // trigger a durable engine checkpoint
  kShutdown = 8,      // graceful drain (final checkpoint, then exit)
  kTraceDump = 9,     // Chrome trace_event JSON of recent spans
  kSubscribe = 10,    // install trigger rules + subscribe to firings
  kUnsubscribe = 11,  // drop this connection's subscriptions
  kTriggerFired = 12,  // unsolicited server push; never a request
  kSnapshotDelta = 13,  // ship only the changes since an acked epoch
};

inline constexpr uint8_t kResponseFlag = 0x80;

const char* MsgTypeName(MsgType type);

inline constexpr uint32_t kWireMagic = 0x57504d49;  // "IMPW"
/// The one protocol version this build speaks and accepts.
///
/// Envelope payload = extension block, then the message payload. The
/// block is a varint byte length followed by (u8 tag, varint length,
/// bytes) entries; a reader skips any tag it does not know, and an entry
/// of a known tag but unexpected size, so a peer can attach fields this
/// build predates. Defined tags:
///   1  trace context (25 bytes: u64 trace_hi, u64 trace_lo,
///      u64 span_id, u8 flags; flag bit 0 = sampled) — propagates one
///      trace across client->server and supervisor->edge hops.
/// Server pushes (TRIGGER_FIRED) are tagged type | kResponseFlag and go
/// only to connections that sent SUBSCRIBE, so on every other connection
/// the k-th response frame still answers the k-th request.
inline constexpr uint64_t kWireProtocolVersion = 6;

inline constexpr EnvelopeFamily kWireEnvelope{kWireMagic,
                                              kWireProtocolVersion, "frame"};

/// Extension-block tags (append only).
inline constexpr uint8_t kExtTagTraceContext = 1;
/// Encoded size of the trace-context extension value.
inline constexpr size_t kTraceContextExtBytes = 8 + 8 + 8 + 1;
inline constexpr uint8_t kTraceFlagSampled = 0x01;

/// Hard ceiling on the envelope part of a frame (the u32 length prefix
/// could name 4 GiB; nothing legitimate comes close). Individual servers
/// and clients configure tighter bounds.
inline constexpr size_t kAbsoluteMaxFrameBytes = 256u << 20;

/// One decoded frame: the raw tag (type byte, response flag included),
/// an owned copy of the message payload (extension block already
/// stripped), and the trace context if the peer attached one (invalid
/// otherwise).
struct Frame {
  uint8_t tag = 0;
  std::string payload;
  obs::SpanContext trace;

  MsgType type() const {
    return static_cast<MsgType>(tag & ~kResponseFlag);
  }
  bool is_response() const { return (tag & kResponseFlag) != 0; }
};

/// A decoded frame whose payload aliases the decoder's buffer instead of
/// owning a copy — the zero-copy fast path the server's reactors decode
/// OBSERVE_BATCH tuples straight out of. The view is valid only until
/// the next Append()/Next()/NextView() call on the decoder that produced
/// it; copy (or finish decoding) before touching the decoder again.
struct FrameView {
  uint8_t tag = 0;
  std::string_view payload;
  obs::SpanContext trace;

  MsgType type() const {
    return static_cast<MsgType>(tag & ~kResponseFlag);
  }
  bool is_response() const { return (tag & kResponseFlag) != 0; }
};

/// Encodes a request frame (length prefix + envelope). With a valid
/// `trace`, the context rides the extension block.
std::string EncodeRequestFrame(MsgType type, std::string_view payload,
                               const obs::SpanContext& trace = {});

/// Encodes a response frame for `type` (tag = type | kResponseFlag).
std::string EncodeResponseFrame(MsgType type, std::string_view payload);

/// Encodes a server-initiated push frame: tagged like a response
/// (type | kResponseFlag) so stream direction stays uniform, but not
/// answering any request. With a valid `trace`, the delivery context
/// rides the extension block exactly as on requests.
std::string EncodePushFrame(MsgType type, std::string_view payload,
                            const obs::SpanContext& trace = {});

// ---------------------------------------------------------------------------
// Response payload = Status header + body:
//   varint status code, length-prefixed message, then the body bytes.
// An OK response carries code 0 and an empty message.
// ---------------------------------------------------------------------------

std::string EncodeResponsePayload(const Status& status,
                                  std::string_view body = {});

/// Splits a response payload into its Status and body view (aliasing
/// `payload`). The outer StatusOr is a wire-format error; the inner
/// Status is the server's verdict on the request.
StatusOr<std::pair<Status, std::string_view>> DecodeResponsePayload(
    std::string_view payload);

// ---------------------------------------------------------------------------
// Incremental frame decoder for a stream socket. Append() raw bytes as
// they arrive; Next() yields complete validated frames. Any framing or
// checksum failure is sticky and connection-fatal.
// ---------------------------------------------------------------------------

class FrameDecoder {
 public:
  /// `max_frame_bytes` bounds the envelope size a peer may declare; a
  /// larger declared frame fails immediately (no buffering of the body),
  /// so a hostile length prefix cannot balloon memory.
  explicit FrameDecoder(size_t max_frame_bytes);

  /// Buffers incoming bytes. Fails (sticky) if the peer overruns the
  /// frame bound.
  Status Append(std::string_view bytes);

  /// Returns the next complete frame, std::nullopt if more bytes are
  /// needed, or a sticky error on protocol violation. Owns its payload;
  /// use NextView() on hot paths that can decode in place.
  StatusOr<std::optional<Frame>> Next();

  /// Zero-copy variant of Next(): the returned frame's payload aliases
  /// the decoder buffer and is invalidated by the next Append()/Next()/
  /// NextView() call. Everything else (validation order, sticky errors,
  /// consumption) is identical to Next().
  StatusOr<std::optional<FrameView>> NextView();

  /// Bytes currently buffered (tests and backpressure accounting).
  size_t buffered() const { return buf_.size() - pos_; }

  /// Heap currently held by the internal buffer. After a large frame is
  /// consumed the buffer shrinks back under kBufferShrinkBytes on the
  /// next Append(), so one oversize batch cannot pin a connection's
  /// memory at its high-water mark forever.
  size_t buffer_capacity() const { return buf_.capacity(); }

  /// Retained-capacity cap: an empty buffer holding more than this is
  /// released before new bytes are appended.
  static constexpr size_t kBufferShrinkBytes = 64u << 10;

 private:
  size_t max_frame_bytes_;
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix of buf_
  Status failed_;   // sticky protocol error
};

}  // namespace implistat::net

#endif  // IMPLISTAT_NET_WIRE_H_
