// Wire trace-context tests: the extension block's codec (known answers,
// unknown-field tolerance, truncation and bit-flip discipline), the
// version check against a live server (every other protocol version is
// connection-fatal and counted as a frame error, a clean close is not),
// and end-to-end propagation — one trace id crossing the socket from a
// client span into the server's per-phase spans.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/engine.h"
#include "util/serde.h"

namespace implistat::net {
namespace {

obs::SpanContext TestTrace() {
  obs::SpanContext trace;
  trace.trace_hi = 0x0123456789abcdefULL;
  trace.trace_lo = 0xfedcba9876543210ULL;
  trace.span_id = 0x1122334455667788ULL;
  trace.sampled = true;
  return trace;
}

// Wraps a hand-built envelope payload (ext block + message payload) into
// a complete frame stamped with protocol `version`: length prefix +
// envelope + CRC. The envelope machinery computes a valid CRC, so these
// tests exercise the extension parser and the version check, not the
// checksum.
std::string FrameFromEnvelopePayload(
    uint8_t tag, std::string_view payload,
    uint64_t version = kWireProtocolVersion) {
  std::string envelope =
      WrapEnvelope(EnvelopeFamily{kWireMagic, version, "frame"}, tag, payload);
  std::string frame;
  uint32_t len = static_cast<uint32_t>(envelope.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(envelope);
  return frame;
}

StatusOr<Frame> DecodeOne(std::string_view bytes) {
  FrameDecoder decoder(1 << 20);
  IMPLISTAT_RETURN_NOT_OK(decoder.Append(bytes));
  IMPLISTAT_ASSIGN_OR_RETURN(std::optional<Frame> frame, decoder.Next());
  if (!frame.has_value()) return Status::InvalidArgument("incomplete frame");
  return *std::move(frame);
}

TEST(TraceContextCodecTest, RoundTripsThroughTheDecoder) {
  const obs::SpanContext trace = TestTrace();
  auto frame =
      DecodeOne(EncodeRequestFrame(MsgType::kQuery, "payload", trace));
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->payload, "payload");
  EXPECT_TRUE(frame->trace.valid());
  EXPECT_EQ(frame->trace.trace_hi, trace.trace_hi);
  EXPECT_EQ(frame->trace.trace_lo, trace.trace_lo);
  EXPECT_EQ(frame->trace.span_id, trace.span_id);
  EXPECT_TRUE(frame->trace.sampled);
}

TEST(TraceContextCodecTest, UnsampledFlagRoundTrips) {
  obs::SpanContext trace = TestTrace();
  trace.sampled = false;
  auto frame = DecodeOne(EncodeRequestFrame(MsgType::kPing, {}, trace));
  ASSERT_TRUE(frame.ok());
  EXPECT_TRUE(frame->trace.valid());
  EXPECT_FALSE(frame->trace.sampled);
}

TEST(TraceContextCodecTest, InvalidTraceCostsOneByteAndDecodesInvalid) {
  const std::string plain = EncodeRequestFrame(MsgType::kQuery, "payload");
  const std::string traced =
      EncodeRequestFrame(MsgType::kQuery, "payload", TestTrace());
  // No trace: just the empty ext-block length byte. With one: 27 more
  // (tag + len varint + 25 value bytes).
  EXPECT_EQ(traced.size(), plain.size() + 27);
  auto frame = DecodeOne(plain);
  ASSERT_TRUE(frame.ok());
  EXPECT_FALSE(frame->trace.valid());
  EXPECT_EQ(frame->payload, "payload");
}

TEST(TraceContextCodecTest, UnknownExtensionTagsAreSkipped) {
  // A future peer appends an extension we have never heard of, before
  // and after the trace entry; both must be ignored, trace and payload
  // must survive.
  const obs::SpanContext trace = TestTrace();
  ByteWriter ext;
  ext.PutU8(200);  // unknown tag
  ext.PutVarint64(3);
  ext.PutBytes("abc");
  ext.PutU8(kExtTagTraceContext);
  ext.PutVarint64(kTraceContextExtBytes);
  ext.PutU64(trace.trace_hi);
  ext.PutU64(trace.trace_lo);
  ext.PutU64(trace.span_id);
  ext.PutU8(kTraceFlagSampled);
  ext.PutU8(7);  // another unknown tag, empty value
  ext.PutVarint64(0);
  std::string ext_bytes = ext.Release();
  ByteWriter payload;
  payload.PutVarint64(ext_bytes.size());
  payload.PutBytes(ext_bytes);
  payload.PutBytes("message");
  auto frame = DecodeOne(FrameFromEnvelopePayload(
      static_cast<uint8_t>(MsgType::kQuery), payload.Release()));
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->payload, "message");
  EXPECT_TRUE(frame->trace.valid());
  EXPECT_EQ(frame->trace.trace_hi, trace.trace_hi);
  EXPECT_TRUE(frame->trace.sampled);
}

TEST(TraceContextCodecTest, WrongSizeTraceEntryIsSkippedNotFatal) {
  // A 5-byte "trace context" — a future revision we cannot parse. Skip
  // it like an unknown tag; the frame itself is fine.
  ByteWriter ext;
  ext.PutU8(kExtTagTraceContext);
  ext.PutVarint64(5);
  ext.PutBytes("xxxxx");
  std::string ext_bytes = ext.Release();
  ByteWriter payload;
  payload.PutVarint64(ext_bytes.size());
  payload.PutBytes(ext_bytes);
  payload.PutBytes("message");
  auto frame = DecodeOne(FrameFromEnvelopePayload(
      static_cast<uint8_t>(MsgType::kPing), payload.Release()));
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_EQ(frame->payload, "message");
  EXPECT_FALSE(frame->trace.valid());
}

TEST(TraceContextCodecTest, ExtensionLengthOverrunIsFatalAndSticky) {
  // ext_len claims more bytes than the envelope payload holds. The CRC
  // is valid (the envelope was wrapped around the lie), so this is the
  // extension parser's own bound doing the rejecting.
  ByteWriter payload;
  payload.PutVarint64(1000);
  payload.PutBytes("shrt");
  FrameDecoder decoder(1 << 20);
  ASSERT_TRUE(decoder
                  .Append(FrameFromEnvelopePayload(
                      static_cast<uint8_t>(MsgType::kPing),
                      payload.Release()))
                  .ok());
  auto frame = decoder.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("extension"),
            std::string_view::npos);
  // Sticky, like every framing violation.
  (void)decoder.Append(EncodeRequestFrame(MsgType::kPing, {}));
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(TraceContextCodecTest, TruncatedExtensionEntryIsFatal) {
  // The ext block itself is self-consistent in length but an entry
  // inside claims more than the block holds.
  ByteWriter ext;
  ext.PutU8(kExtTagTraceContext);
  ext.PutVarint64(200);  // overruns the block
  ext.PutBytes("ab");
  std::string ext_bytes = ext.Release();
  ByteWriter payload;
  payload.PutVarint64(ext_bytes.size());
  payload.PutBytes(ext_bytes);
  auto frame = DecodeOne(FrameFromEnvelopePayload(
      static_cast<uint8_t>(MsgType::kPing), payload.Release()));
  ASSERT_FALSE(frame.ok());
  EXPECT_NE(frame.status().message().find("extension"),
            std::string_view::npos);
}

TEST(TraceContextCodecTest, EveryBitFlipOnTracedFrameRejected) {
  const std::string wire =
      EncodeRequestFrame(MsgType::kQuery, "payload", TestTrace());
  for (size_t byte = 4; byte < wire.size(); ++byte) {  // envelope part
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = wire;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      FrameDecoder decoder(1 << 20);
      ASSERT_TRUE(decoder.Append(corrupted).ok());
      EXPECT_FALSE(decoder.Next().ok())
          << "bit " << bit << " of byte " << byte << " flipped undetected";
    }
  }
}

TEST(TraceContextCodecTest, EveryTruncationOfTracedFrameLeavesWaiting) {
  const std::string wire =
      EncodeRequestFrame(MsgType::kQuery, "payload", TestTrace());
  for (size_t len = 0; len < wire.size(); ++len) {
    FrameDecoder decoder(1 << 20);
    ASSERT_TRUE(decoder.Append(wire.substr(0, len)).ok());
    auto frame = decoder.Next();
    ASSERT_TRUE(frame.ok()) << "prefix of " << len << ": " << frame.status();
    EXPECT_FALSE(frame->has_value()) << "prefix of " << len << " decoded";
  }
}

// ---------------------------------------------------------------------------
// Live-server compatibility and propagation.
// ---------------------------------------------------------------------------

Schema TestSchema() {
  return Schema({{"Source", 97}, {"Destination", 47}, {"Hour", 24}});
}

ImplicationQuerySpec ExactSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.estimator.kind = EstimatorKind::kExact;
  spec.label = "exact";
  return spec;
}

class LoopbackServer {
 public:
  LoopbackServer() : engine_(TestSchema()) {}
  ~LoopbackServer() { Stop(); }

  QueryEngine& engine() { return engine_; }

  void Start() {
    server_ = std::make_unique<Server>(&engine_, ServerOptions());
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    thread_ = std::thread([this] { (void)server_->Run(); });
  }

  void Stop() {
    if (!thread_.joinable()) return;
    server_->Shutdown();
    thread_.join();
  }

  uint16_t port() const { return server_->port(); }

  StatusOr<Client> Connect() {
    return Client::Connect("127.0.0.1", server_->port());
  }

 private:
  QueryEngine engine_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
};

// A protocol-level client speaking whatever bytes the test hands it —
// how a peer built for another protocol version looks to the server.
class RawConn {
 public:
  explicit RawConn(uint16_t port) { Open(port); }

  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }

  // gtest fatal assertions only work in void functions, not constructors.
  void Open(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd_, 0);
    struct sockaddr_in addr;
    memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(connect(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                      sizeof(addr)),
              0);
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  void Send(std::string_view bytes) {
    ASSERT_EQ(send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  // Next frame, or an error once the server hangs up / sends garbage.
  StatusOr<Frame> ReadFrame() {
    char buf[65536];
    for (;;) {
      IMPLISTAT_ASSIGN_OR_RETURN(std::optional<Frame> frame,
                                 decoder_.Next());
      if (frame.has_value()) return *std::move(frame);
      ssize_t n = recv(fd_, buf, sizeof(buf), 0);
      if (n == 0) return Status::Unavailable("server closed the connection");
      if (n < 0) return Status::IOError("recv failed");
      IMPLISTAT_RETURN_NOT_OK(
          decoder_.Append(std::string_view(buf, static_cast<size_t>(n))));
    }
  }

 private:
  int fd_ = -1;
  FrameDecoder decoder_{1 << 20};
};

// A PING stamped with protocol `version`, laid out as the current
// dialect (empty extension block) — so only the version can object.
std::string PingAtVersion(uint64_t version) {
  return FrameFromEnvelopePayload(static_cast<uint8_t>(MsgType::kPing),
                                  std::string(1, '\0'), version);
}

TEST(WireCompatTest, OutOfRangeVersionsAreConnectionFatal) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  for (uint64_t version : {1, 2, 3, 4, 5, 7}) {
    SCOPED_TRACE("version " + std::to_string(version));
    auto refused = DecodeOne(PingAtVersion(version));
    ASSERT_FALSE(refused.ok());
    EXPECT_NE(refused.status().message().find(
                  "unsupported format version " + std::to_string(version)),
              std::string_view::npos)
        << refused.status();

    RawConn conn(server.port());
    conn.Send(PingAtVersion(version));
    EXPECT_FALSE(conn.ReadFrame().ok());  // closed, never answered
  }
  // The helper's bytes are sound: at the current version they are a PING
  // the decoder accepts and the server answers.
  auto ping = DecodeOne(PingAtVersion(kWireProtocolVersion));
  ASSERT_TRUE(ping.ok()) << ping.status();
  EXPECT_EQ(ping->type(), MsgType::kPing);
  EXPECT_TRUE(ping->payload.empty());
  RawConn conn(server.port());
  conn.Send(PingAtVersion(kWireProtocolVersion));
  auto pong = conn.ReadFrame();
  ASSERT_TRUE(pong.ok()) << pong.status();
  EXPECT_TRUE(pong->is_response());
  EXPECT_EQ(pong->type(), MsgType::kPing);
  // The server itself shrugged every refusal off.
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
}

// implistat_net_frame_errors_total counts refused frames only: clean
// connect-ping-close cycles leave it alone, one off-version frame moves it
// by exactly one.
TEST(WireCompatTest, FrameErrorsCountRefusalsNotCleanCloses) {
  if (!obs::kMetricsEnabled) {
    GTEST_SKIP() << "metrics compiled out (IMPLISTAT_METRICS=OFF)";
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();
  obs::Counter* frame_errors =
      registry.GetCounter("implistat_net_frame_errors_total");
  obs::Gauge* connections = registry.GetGauge("implistat_net_connections");
  const int64_t idle = connections->Value();
  // The server counts a bad frame before it reaps the connection, so once
  // the gauge is back at `idle` every close has been fully handled.
  auto all_reaped = [&] {
    for (int i = 0; i < 500 && connections->Value() != idle; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return connections->Value() == idle;
  };
  const uint64_t before = frame_errors->Value();

  for (int i = 0; i < 5; ++i) {
    auto client = server.Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client->Ping().ok());
  }
  ASSERT_TRUE(all_reaped());
  EXPECT_EQ(frame_errors->Value(), before);

  {
    RawConn conn(server.port());
    conn.Send(PingAtVersion(5));
    EXPECT_FALSE(conn.ReadFrame().ok());
  }
  ASSERT_TRUE(all_reaped());
  EXPECT_EQ(frame_errors->Value(), before + 1);
}

TEST(WireTraceTest, OneTraceCrossesTheSocketIntoServerPhases) {
  if (!obs::kTraceEnabled) {
    GTEST_SKIP() << "tracing compiled out (IMPLISTAT_METRICS=OFF)";
  }
  const uint32_t previous_rate = obs::Tracer::SampleEveryN();
  obs::Tracer::SetSampleEveryN(1);

  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());

  obs::SpanContext root_ctx;
  {
    obs::ScopedSpan root("test.net.root", "test");
    ASSERT_TRUE(root.sampled());
    root_ctx = root.context();
    auto response = client->Query({});
    ASSERT_TRUE(response.ok()) << response.status();
  }
  // A second RPC serializes behind the first on the single-threaded
  // server loop, guaranteeing the QUERY's handle span has been recorded.
  ASSERT_TRUE(client->Ping().ok());

  auto spans = obs::Tracer::Snapshot();
  auto in_trace = [&](const obs::SpanRecord& span) {
    return span.trace_hi == root_ctx.trace_hi &&
           span.trace_lo == root_ctx.trace_lo;
  };
  const obs::SpanRecord* roundtrip = nullptr;
  const obs::SpanRecord* handle = nullptr;
  const obs::SpanRecord* handoff = nullptr;
  const obs::SpanRecord* apply = nullptr;
  for (const auto& span : spans) {
    if (!in_trace(span)) continue;
    if (std::string_view(span.name) == "client.roundtrip") {
      roundtrip = &span;
    } else if (std::string_view(span.name) == "server.handle") {
      handle = &span;
    } else if (std::string_view(span.name) == "server.reactor_handoff") {
      handoff = &span;
    } else if (std::string_view(span.name) == "server.apply") {
      apply = &span;
    }
  }
  // Client side: the RPC span nests under the test root.
  ASSERT_NE(roundtrip, nullptr);
  EXPECT_EQ(roundtrip->parent_id, root_ctx.span_id);
  EXPECT_EQ(std::string_view(roundtrip->detail), "query");
  // Server side: its handle span joined the SAME 128-bit trace across
  // the socket, parented on the client's RPC span...
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->parent_id, roundtrip->span_id);
  EXPECT_NE(handle->tid, roundtrip->tid);  // recorded on a reactor thread
  // ...the reactor-to-writer handoff nests inside the handle span (and
  // carries the op across the thread hop)...
  ASSERT_NE(handoff, nullptr);
  EXPECT_EQ(handoff->parent_id, handle->span_id);
  // ...and the engine phase nests inside the handoff, on the writer.
  ASSERT_NE(apply, nullptr);
  EXPECT_EQ(apply->parent_id, handoff->span_id);
  EXPECT_NE(apply->tid, handle->tid);  // writer thread, not the reactor

  // TRACE_DUMP ships the same story as Perfetto-loadable JSON.
  auto json = client->TraceDump();
  ASSERT_TRUE(json.ok()) << json.status();
  EXPECT_NE(json->find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json->find("\"name\":\"server.handle\""), std::string::npos);
  EXPECT_NE(
      json->find(obs::TraceIdHex(root_ctx.trace_hi, root_ctx.trace_lo)),
      std::string::npos);

  obs::Tracer::SetSampleEveryN(previous_rate);
}

TEST(WireTraceTest, UnsampledRequestsLeaveNoServerSpans) {
  obs::Tracer::SetSampleEveryN(0);

  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();
  auto client = server.Connect();
  ASSERT_TRUE(client.ok());

  const size_t before = obs::Tracer::Snapshot().size();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(client->Ping().ok());
  }
  ASSERT_TRUE(client->Query({}).ok());
  EXPECT_EQ(obs::Tracer::Snapshot().size(), before);

  obs::Tracer::SetSampleEveryN(64);
}

}  // namespace
}  // namespace implistat::net
