#include "net/wire.h"

#include <cstring>

namespace implistat::net {

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kPing: return "ping";
    case MsgType::kObserveBatch: return "observe_batch";
    case MsgType::kQuery: return "query";
    case MsgType::kSnapshot: return "snapshot";
    case MsgType::kMerge: return "merge";
    case MsgType::kMetrics: return "metrics";
    case MsgType::kCheckpoint: return "checkpoint";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kTraceDump: return "trace_dump";
    case MsgType::kSubscribe: return "subscribe";
    case MsgType::kUnsubscribe: return "unsubscribe";
    case MsgType::kTriggerFired: return "trigger_fired";
    case MsgType::kSnapshotDelta: return "snapshot_delta";
  }
  return "unknown";
}

namespace {

// Envelope payload: extension block (length-prefixed TLV run) then the
// message payload.
std::string EncodeFramePayload(std::string_view payload,
                               const obs::SpanContext& trace) {
  ByteWriter ext;
  if (trace.valid()) {
    ext.PutU8(kExtTagTraceContext);
    ext.PutVarint64(kTraceContextExtBytes);
    ext.PutU64(trace.trace_hi);
    ext.PutU64(trace.trace_lo);
    ext.PutU64(trace.span_id);
    ext.PutU8(trace.sampled ? kTraceFlagSampled : 0);
  }
  std::string ext_bytes = ext.Release();
  ByteWriter out;
  out.PutVarint64(ext_bytes.size());
  out.PutBytes(ext_bytes);
  out.PutBytes(payload);
  return out.Release();
}

std::string EncodeFrame(uint8_t tag, std::string_view payload,
                        const obs::SpanContext& trace) {
  std::string envelope =
      WrapEnvelope(kWireEnvelope, tag, EncodeFramePayload(payload, trace));
  std::string frame;
  frame.reserve(sizeof(uint32_t) + envelope.size());
  uint32_t len = static_cast<uint32_t>(envelope.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(envelope);
  return frame;
}

// Splits an envelope payload into extension block and message payload
// (a view into `envelope_payload`), filling `trace` from a trace-context
// entry if present. Unknown extension tags are skipped (forward
// compatibility); structural damage (truncated TLV, length overrun) is
// an error — the extension block is CRC-protected with the rest of the
// envelope, so damage here means a peer that cannot be trusted.
Status DecodeFramePayload(std::string_view envelope_payload,
                          obs::SpanContext* trace,
                          std::string_view* message_payload) {
  ByteReader in(envelope_payload);
  uint64_t ext_len;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&ext_len));
  if (ext_len > in.remaining()) {
    return Status::InvalidArgument("frame: truncated extension block");
  }
  std::string_view ext;
  IMPLISTAT_RETURN_NOT_OK(in.ReadBytes(ext_len, &ext));
  ByteReader ext_in(ext);
  while (ext_in.remaining() > 0) {
    uint8_t ext_tag;
    IMPLISTAT_RETURN_NOT_OK(ext_in.ReadU8(&ext_tag));
    uint64_t entry_len;
    IMPLISTAT_RETURN_NOT_OK(ext_in.ReadVarint64(&entry_len));
    if (entry_len > ext_in.remaining()) {
      return Status::InvalidArgument("frame: truncated extension entry");
    }
    std::string_view entry;
    IMPLISTAT_RETURN_NOT_OK(ext_in.ReadBytes(entry_len, &entry));
    if (ext_tag == kExtTagTraceContext &&
        entry.size() == kTraceContextExtBytes) {
      ByteReader tc(entry);
      uint8_t flags;
      IMPLISTAT_RETURN_NOT_OK(tc.ReadU64(&trace->trace_hi));
      IMPLISTAT_RETURN_NOT_OK(tc.ReadU64(&trace->trace_lo));
      IMPLISTAT_RETURN_NOT_OK(tc.ReadU64(&trace->span_id));
      IMPLISTAT_RETURN_NOT_OK(tc.ReadU8(&flags));
      trace->sampled = (flags & kTraceFlagSampled) != 0;
    }
    // Any other tag (or a trace entry of an unexpected size, i.e. a
    // future revision) is deliberately ignored.
  }
  IMPLISTAT_RETURN_NOT_OK(in.ReadBytes(in.remaining(), message_payload));
  return Status::OK();
}

}  // namespace

std::string EncodeRequestFrame(MsgType type, std::string_view payload,
                               const obs::SpanContext& trace) {
  return EncodeFrame(static_cast<uint8_t>(type), payload, trace);
}

std::string EncodeResponseFrame(MsgType type, std::string_view payload) {
  return EncodeFrame(static_cast<uint8_t>(type) | kResponseFlag, payload,
                     obs::SpanContext());
}

std::string EncodePushFrame(MsgType type, std::string_view payload,
                            const obs::SpanContext& trace) {
  return EncodeFrame(static_cast<uint8_t>(type) | kResponseFlag, payload,
                     trace);
}

std::string EncodeResponsePayload(const Status& status,
                                  std::string_view body) {
  ByteWriter out;
  out.PutVarint64(static_cast<uint64_t>(status.code()));
  out.PutLengthPrefixed(status.message());
  out.PutBytes(body);
  return out.Release();
}

StatusOr<std::pair<Status, std::string_view>> DecodeResponsePayload(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t code;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&code));
  if (code > static_cast<uint64_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("response: unknown status code " +
                                   std::to_string(code));
  }
  std::string_view message;
  IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&message));
  std::string_view body;
  IMPLISTAT_RETURN_NOT_OK(in.ReadBytes(in.remaining(), &body));
  return std::make_pair(
      Status(static_cast<StatusCode>(code), std::string(message)), body);
}

FrameDecoder::FrameDecoder(size_t max_frame_bytes)
    : max_frame_bytes_(max_frame_bytes < kAbsoluteMaxFrameBytes
                           ? max_frame_bytes
                           : kAbsoluteMaxFrameBytes) {}

Status FrameDecoder::Append(std::string_view bytes) {
  IMPLISTAT_RETURN_NOT_OK(failed_);
  if (pos_ > 0 && pos_ == buf_.size()) {
    // Fully drained. Reset, and give back the heap a large frame left
    // behind — a connection that shipped one oversize batch must not pin
    // that high-water mark for its whole lifetime.
    buf_.clear();
    pos_ = 0;
    if (buf_.capacity() > kBufferShrinkBytes) buf_.shrink_to_fit();
  } else if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    // Compact once the consumed prefix dominates, so a long-lived
    // connection doesn't grow its buffer without bound. If a large
    // consumed frame left the capacity far above the surviving tail
    // (e.g. a partial next frame buffered behind an oversize batch),
    // rebuild small instead of compacting in place — same no-pinning
    // guarantee as the fully-drained branch.
    if (buf_.capacity() > kBufferShrinkBytes &&
        buf_.size() - pos_ < kBufferShrinkBytes / 2) {
      std::string tail(buf_, pos_);
      buf_.swap(tail);
      buf_.shrink_to_fit();
    } else {
      buf_.erase(0, pos_);
    }
    pos_ = 0;
  }
  buf_.append(bytes);
  return Status::OK();
}

StatusOr<std::optional<FrameView>> FrameDecoder::NextView() {
  IMPLISTAT_RETURN_NOT_OK(failed_);
  const std::string_view pending = std::string_view(buf_).substr(pos_);
  if (pending.size() < sizeof(uint32_t)) return std::optional<FrameView>();
  uint32_t envelope_len;
  std::memcpy(&envelope_len, pending.data(), sizeof(envelope_len));
  if (envelope_len > max_frame_bytes_) {
    failed_ = Status::ResourceExhausted(
        "frame: declared length " + std::to_string(envelope_len) +
        " exceeds the frame bound " + std::to_string(max_frame_bytes_));
    return failed_;
  }
  // A frame smaller than the envelope overhead (magic + version + tag +
  // zero-length payload + CRC) cannot be valid; fail fast instead of
  // waiting for bytes that will only confirm the corruption.
  constexpr uint32_t kMinEnvelopeBytes = 4 + 1 + 1 + 1 + 4;
  if (envelope_len < kMinEnvelopeBytes) {
    failed_ = Status::InvalidArgument("frame: declared length " +
                                      std::to_string(envelope_len) +
                                      " is below the envelope minimum");
    return failed_;
  }
  if (pending.size() - sizeof(uint32_t) < envelope_len) {
    return std::optional<FrameView>();
  }
  const std::string_view envelope =
      pending.substr(sizeof(uint32_t), envelope_len);
  uint8_t tag;
  auto payload = UnwrapEnvelope(kWireEnvelope, envelope, &tag);
  if (!payload.ok()) {
    failed_ = payload.status();
    return failed_;
  }
  FrameView frame;
  frame.tag = tag;
  Status ext = DecodeFramePayload(*payload, &frame.trace, &frame.payload);
  if (!ext.ok()) {
    failed_ = ext;
    return failed_;
  }
  pos_ += sizeof(uint32_t) + envelope_len;
  return std::optional<FrameView>(frame);
}

StatusOr<std::optional<Frame>> FrameDecoder::Next() {
  IMPLISTAT_ASSIGN_OR_RETURN(std::optional<FrameView> view, NextView());
  if (!view.has_value()) return std::optional<Frame>();
  Frame frame;
  frame.tag = view->tag;
  frame.trace = view->trace;
  frame.payload = std::string(view->payload);
  return std::optional<Frame>(std::move(frame));
}

}  // namespace implistat::net
