// Wire subscription layer: SUBSCRIBE/UNSUBSCRIBE/TRIGGER_FIRED codec
// round-trips and known-answer bytes, corruption discipline on the new
// payloads, and live-socket behavior — a subscriber receives pushes when
// another connection's ingest fires a trigger, a pipelined subscriber
// sees pushes surface inside Await, and a connection that never
// subscribes keeps its strict request/response FIFO with no push ever
// interleaved.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "net/wire.h"
#include "query/engine.h"
#include "util/random.h"

namespace implistat::net {
namespace {

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> int {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return bytes;
}

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

std::vector<ValueId> Row(uint64_t i) {
  return {static_cast<ValueId>(i % 97),
          static_cast<ValueId>((i % 7 == 0) ? i % 47 : (i % 97) % 13),
          static_cast<ValueId>(i % 24)};
}

ObserveBatchRequest IdBatch(uint64_t begin, uint64_t end) {
  ObserveBatchRequest batch;
  batch.encoding = ObserveEncoding::kIds;
  batch.width = 3;
  for (uint64_t i = begin; i < end; ++i) {
    for (ValueId id : Row(i)) batch.ids.push_back(id);
  }
  return batch;
}

// A Server on its own thread (see net_loopback_test.cc); the engine may
// only be touched before Start() and after Stop().
class LoopbackServer {
 public:
  explicit LoopbackServer(ServerOptions options = {})
      : engine_(TestSchema()), options_(std::move(options)) {}

  ~LoopbackServer() { Stop(); }

  QueryEngine& engine() { return engine_; }

  void Start() {
    server_ = std::make_unique<Server>(&engine_, options_);
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started;
    thread_ = std::thread([this] { run_status_ = server_->Run(); });
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
  ServerOptions options_;
  std::unique_ptr<Server> server_;
  std::thread thread_;
  Status run_status_;
};

// Raw socket + frame decoder: lets a test send hand-built frames and see
// exactly which frames come back, in order (see net_trace_test.cc).
class RawConn {
 public:
  explicit RawConn(uint16_t port) { Open(port); }

  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }

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

  StatusOr<Frame> ReadFrame() {
    char buf[65536];
    for (;;) {
      IMPLISTAT_ASSIGN_OR_RETURN(std::optional<Frame> frame, decoder_.Next());
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

// --- payload codecs --------------------------------------------------------

TEST(SubscribeCodecTest, RequestRoundTrips) {
  SubscribeRequest request;
  request.statements = {"CREATE TRIGGER a ON q WHEN q > 1",
                        "CREATE TRIGGER b ON q WHEN DELTA(q) > 0"};
  request.triggers = {"a", "other"};
  auto decoded = DecodeSubscribeRequest(EncodeSubscribeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->statements, request.statements);
  EXPECT_EQ(decoded->triggers, request.triggers);

  // Both lists empty = subscribe to everything, installing nothing.
  auto empty = DecodeSubscribeRequest(EncodeSubscribeRequest({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->statements.empty());
  EXPECT_TRUE(empty->triggers.empty());
}

TEST(SubscribeCodecTest, ResponseRoundTrips) {
  SubscribeResponse response;
  response.installed = 3;
  response.matched = 17;
  auto decoded = DecodeSubscribeResponse(EncodeSubscribeResponse(response));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->installed, 3u);
  EXPECT_EQ(decoded->matched, 17u);
}

TEST(TriggerFiredCodecTest, RoundTrips) {
  TriggerFired fired;
  fired.trigger = "ddos-alert";
  fired.epoch = 123456789;
  fired.value = -2.75;
  auto decoded = DecodeTriggerFired(EncodeTriggerFired(fired));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trigger, "ddos-alert");
  EXPECT_EQ(decoded->epoch, 123456789u);
  EXPECT_EQ(decoded->value, -2.75);
}

// Known-answer payload bytes: length-prefixed name, varint epoch, IEEE
// double. A change here breaks deployed subscribers.
TEST(TriggerFiredCodecTest, PayloadBytes) {
  TriggerFired fired;
  fired.trigger = "cpu";
  fired.epoch = 300;
  fired.value = 1.5;
  EXPECT_EQ(EncodeTriggerFired(fired),
            FromHex("03637075"              // "cpu"
                    "ac02"                  // 300
                    "000000000000f83f"));   // 1.5
}

TEST(TriggerFiredCodecTest, EmptyNameRejected) {
  TriggerFired fired;
  fired.trigger = "";
  fired.epoch = 1;
  auto decoded = DecodeTriggerFired(EncodeTriggerFired(fired));
  EXPECT_FALSE(decoded.ok());
}

TEST(SubscribeCodecTest, EveryTruncationRejected) {
  SubscribeRequest request;
  request.statements = {"CREATE TRIGGER a ON q WHEN q > 1"};
  request.triggers = {"a"};
  const std::string wire = EncodeSubscribeRequest(request);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeSubscribeRequest(wire.substr(0, len)).ok())
        << "prefix of " << len << " decoded";
  }
}

TEST(TriggerFiredCodecTest, EveryTruncationRejected) {
  TriggerFired fired;
  fired.trigger = "t";
  fired.epoch = 1 << 20;
  fired.value = 3.25;
  const std::string wire = EncodeTriggerFired(fired);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(DecodeTriggerFired(wire.substr(0, len)).ok())
        << "prefix of " << len << " decoded";
  }
}

TEST(TriggerFiredCodecTest, BitFlipsNeverCrashTheDecoder) {
  TriggerFired fired;
  fired.trigger = "watchdog";
  fired.epoch = 4096;
  fired.value = 12.5;
  const std::string wire = EncodeTriggerFired(fired);
  Rng rng(20260809);
  for (int iter = 0; iter < 500; ++iter) {
    std::string corrupted = wire;
    size_t byte = rng.Uniform(corrupted.size());
    corrupted[byte] ^= static_cast<char>(1 << rng.Uniform(8));
    // Either a clean error or a decode of *something* — never a crash.
    (void)DecodeTriggerFired(corrupted);
    (void)DecodeSubscribeRequest(corrupted);
    (void)DecodeSubscribeResponse(corrupted);
  }
}

// --- push frame envelope ---------------------------------------------------

TEST(PushFrameTest, TaggedAsResponseAndDecodes) {
  TriggerFired fired;
  fired.trigger = "cpu";
  fired.epoch = 300;
  fired.value = 1.5;
  const std::string wire =
      EncodePushFrame(MsgType::kTriggerFired, EncodeTriggerFired(fired));

  FrameDecoder decoder(1 << 20);
  ASSERT_TRUE(decoder.Append(wire).ok());
  auto frame = decoder.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  ASSERT_TRUE(frame->has_value());
  EXPECT_TRUE((*frame)->is_response());
  EXPECT_EQ((*frame)->type(), MsgType::kTriggerFired);
  auto decoded = DecodeTriggerFired((*frame)->payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trigger, "cpu");
  EXPECT_EQ(decoded->epoch, 300u);
}

// Exact bytes of a minimal push frame (CRC32C trailer over the envelope,
// as in net_frame_test.cc). Tag is kTriggerFired | kResponseFlag = 0x8c.
TEST(PushFrameTest, PushFrameBytes) {
  TriggerFired fired;
  fired.trigger = "cpu";
  fired.epoch = 300;
  fired.value = 1.5;
  EXPECT_EQ(EncodePushFrame(MsgType::kTriggerFired, EncodeTriggerFired(fired)),
            FromHex("1a000000"
                    "494d5057"              // "IMPW"
                    "06"                    // protocol v6
                    "8c"                    // kTriggerFired | kResponseFlag
                    "0f"                    // payload length
                    "00"                    // no extension block
                    "03637075"              // "cpu"
                    "ac02"                  // epoch 300
                    "000000000000f83f"      // value 1.5
                    "ef169171"));           // CRC32C trailer
}

// --- live socket -----------------------------------------------------------

TEST(SubscriptionTest, PushDeliveredToSubscriberWhenAnotherClientFires) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  auto subscriber = server.Connect();
  ASSERT_TRUE(subscriber.ok()) << subscriber.status();
  std::vector<TriggerFired> received;
  subscriber->set_on_trigger(
      [&](const TriggerFired& fired, const obs::SpanContext&) {
        received.push_back(fired);
      });
  SubscribeRequest request;
  request.statements = {
      "CREATE TRIGGER edge ON exact WHEN exact >= 0 EVERY 100 TUPLES"};
  auto subscribed = subscriber->Subscribe(request);
  ASSERT_TRUE(subscribed.ok()) << subscribed.status();
  EXPECT_EQ(subscribed->installed, 1u);
  EXPECT_EQ(subscribed->matched, 1u);

  auto feeder = server.Connect();
  ASSERT_TRUE(feeder.ok()) << feeder.status();
  auto observed = feeder->ObserveBatch(IdBatch(0, 400));
  ASSERT_TRUE(observed.ok()) << observed.status();
  EXPECT_EQ(*observed, 400u);

  ASSERT_TRUE(subscriber->WaitForTrigger(5000).ok());
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].trigger, "edge");
  // One batch crossing the boundary evaluates once, at the batch edge.
  EXPECT_EQ(received[0].epoch, 400u);
  EXPECT_EQ(received[0].value, 1.0);  // the WHEN comparison's value

  // Edge-triggered: the condition stays true, so further ingest must not
  // refire. A round-trip after the ingest proves no stray push arrived.
  ASSERT_TRUE(feeder->ObserveBatch(IdBatch(400, 800)).ok());
  ASSERT_TRUE(subscriber->Ping().ok());
  EXPECT_EQ(received.size(), 1u);
}

TEST(SubscriptionTest, BadStatementRefusedConnectionStaysUsable) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  SubscribeRequest request;
  request.statements = {"CREATE TRIGGER bad ON nosuch WHEN nosuch > 1"};
  auto subscribed = client->Subscribe(request);
  EXPECT_FALSE(subscribed.ok());
  // The refusal is an embedded status, not a transport failure.
  EXPECT_FALSE(client->connection_lost());
  EXPECT_TRUE(client->Ping().ok());
}

// An 18 KB statement nested 9,000 parentheses deep, far past the 64-level
// limit, must be refused with an ordinary embedded status while the
// connection stays usable.
TEST(SubscriptionTest, DeeplyNestedStatementRefusedConnectionStaysUsable) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  SubscribeRequest request;
  request.statements = {"CREATE TRIGGER deep ON exact WHEN " +
                        std::string(9000, '(') + "exact" +
                        std::string(9000, ')') + " > 1"};
  auto subscribed = client->Subscribe(request);
  ASSERT_FALSE(subscribed.ok());
  EXPECT_NE(subscribed.status().message().find(
                "expression nested deeper than 64 levels"),
            std::string_view::npos)
      << subscribed.status();
  EXPECT_FALSE(client->connection_lost());
  EXPECT_TRUE(client->Ping().ok());
}

TEST(SubscriptionTest, PipelinedSubscriberSeesPushInsideAwait) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  size_t fired = 0;
  client->set_on_trigger(
      [&](const TriggerFired&, const obs::SpanContext&) { ++fired; });
  SubscribeRequest request;
  request.statements = {
      "CREATE TRIGGER inline ON exact WHEN exact >= 0 EVERY 100 TUPLES"};
  ASSERT_TRUE(client->Subscribe(request).ok());

  // The subscriber itself drives the firing ingest, pipelined; the push
  // surfaces while draining Awaits, never desynchronizing the FIFO.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(client
                    ->Submit(MsgType::kObserveBatch,
                             EncodeObserveBatchRequest(
                                 IdBatch(i * 100, (i + 1) * 100)))
                    .ok());
  }
  EXPECT_EQ(client->WaitForTrigger(0).code(), StatusCode::kFailedPrecondition);
  for (int i = 0; i < 4; ++i) {
    auto body = client->Await();
    ASSERT_TRUE(body.ok()) << body.status();
    auto seen = DecodeObserveBatchResponse(*body);
    ASSERT_TRUE(seen.ok());
    EXPECT_EQ(*seen, static_cast<uint64_t>((i + 1) * 100));
  }
  // The push may still be in flight behind the last response; once the
  // pipeline is drained, WaitForTrigger is allowed again and picks it up.
  if (fired == 0) {
    ASSERT_TRUE(client->WaitForTrigger(5000).ok());
  }
  EXPECT_EQ(fired, 1u);
}

TEST(SubscriptionTest, UnsubscribeStopsPushes) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  auto first = server.Connect();
  ASSERT_TRUE(first.ok());
  size_t first_fired = 0;
  first->set_on_trigger(
      [&](const TriggerFired&, const obs::SpanContext&) { ++first_fired; });
  SubscribeRequest install_one;
  install_one.statements = {
      "CREATE TRIGGER one ON exact WHEN exact >= 0 EVERY 100 TUPLES"};
  ASSERT_TRUE(first->Subscribe(install_one).ok());

  auto feeder = server.Connect();
  ASSERT_TRUE(feeder.ok());
  ASSERT_TRUE(feeder->ObserveBatch(IdBatch(0, 200)).ok());
  ASSERT_TRUE(first->WaitForTrigger(5000).ok());
  EXPECT_EQ(first_fired, 1u);

  ASSERT_TRUE(first->Unsubscribe().ok());

  // A second, still-subscribed connection arms a fresh trigger; its
  // firing reaches it but not the unsubscribed one.
  auto second = server.Connect();
  ASSERT_TRUE(second.ok());
  size_t second_fired = 0;
  second->set_on_trigger(
      [&](const TriggerFired&, const obs::SpanContext&) { ++second_fired; });
  SubscribeRequest install_two;
  install_two.statements = {
      "CREATE TRIGGER two ON exact WHEN DELTA(exact) >= 0 EVERY 100 TUPLES"};
  install_two.triggers = {"two"};
  auto subscribed = second->Subscribe(install_two);
  ASSERT_TRUE(subscribed.ok());
  EXPECT_EQ(subscribed->matched, 1u);  // filtered: "one" not included

  ASSERT_TRUE(feeder->ObserveBatch(IdBatch(200, 400)).ok());
  ASSERT_TRUE(second->WaitForTrigger(5000).ok());
  EXPECT_EQ(second_fired, 1u);
  // Round-trips on the unsubscribed connection still work and dispatch
  // nothing — no push was queued for it.
  ASSERT_TRUE(first->Ping().ok());
  EXPECT_EQ(first_fired, 1u);
}

TEST(SubscriptionTest, FiringMetricsExported) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  auto client = server.Connect();
  ASSERT_TRUE(client.ok());
  client->set_on_trigger([](const TriggerFired&, const obs::SpanContext&) {});
  SubscribeRequest request;
  request.statements = {
      "CREATE TRIGGER counted ON exact WHEN exact >= 0 EVERY 50 TUPLES"};
  ASSERT_TRUE(client->Subscribe(request).ok());
  auto feeder = server.Connect();
  ASSERT_TRUE(feeder.ok());
  ASSERT_TRUE(feeder->ObserveBatch(IdBatch(0, 100)).ok());
  ASSERT_TRUE(client->WaitForTrigger(5000).ok());

  auto metrics = client->Metrics();
  ASSERT_TRUE(metrics.ok());
  if (obs::kMetricsEnabled) {
    EXPECT_NE(metrics->find("implistat_triggers_fired_total"),
              std::string::npos);
    EXPECT_NE(metrics->find("implistat_trigger_pushes_total"),
              std::string::npos);
  }
}

// A connection that never subscribes never sees a push: its k-th response
// frame answers its k-th request even while a subscriber on the same
// server is receiving TRIGGER_FIRED frames.
TEST(SubscriptionTest, NonSubscriberKeepsStrictFifoWhileTriggersFire) {
  LoopbackServer server;
  ASSERT_TRUE(server.engine().Register(ExactSpec()).ok());
  server.Start();

  auto subscriber = server.Connect();
  ASSERT_TRUE(subscriber.ok());
  size_t fired = 0;
  subscriber->set_on_trigger(
      [&](const TriggerFired&, const obs::SpanContext&) { ++fired; });
  SubscribeRequest request;
  request.statements = {
      "CREATE TRIGGER crossed ON exact WHEN exact >= 0 EVERY 100 TUPLES"};
  ASSERT_TRUE(subscriber->Subscribe(request).ok());

  RawConn conn(server.port());
  conn.Send(EncodeRequestFrame(MsgType::kPing, {}));
  // This batch crosses the trigger boundary — the firing pushes to the
  // subscriber, not back to this connection.
  conn.Send(EncodeRequestFrame(MsgType::kObserveBatch,
                               EncodeObserveBatchRequest(IdBatch(0, 400))));
  conn.Send(EncodeRequestFrame(MsgType::kPing, {}));
  ASSERT_TRUE(subscriber->WaitForTrigger(5000).ok());
  // Sent after the firing was delivered: a push wrongly routed here would
  // already sit ahead of this answer.
  conn.Send(EncodeRequestFrame(MsgType::kPing, {}));

  const MsgType expected[] = {MsgType::kPing, MsgType::kObserveBatch,
                              MsgType::kPing, MsgType::kPing};
  for (MsgType want : expected) {
    auto frame = conn.ReadFrame();
    ASSERT_TRUE(frame.ok()) << frame.status();
    EXPECT_TRUE(frame->is_response());
    EXPECT_EQ(frame->type(), want);
  }
  EXPECT_EQ(fired, 1u);
}

}  // namespace
}  // namespace implistat::net
