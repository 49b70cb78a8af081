// Client deadline and reconnection tests: bounded connect against a peer
// that never completes the handshake, per-request deadlines against an
// accepted-but-silent socket, a corrupt frame poisoning the connection
// while a subscriber waits for pushes, CONNECTION_LOST classification
// after the server goes away, and Reconnect() resuming against a
// restarted server on the same port. These are the failure paths the
// aggregation tier's retry logic is keyed on.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/messages.h"
#include "net/server.h"
#include "net/wire.h"
#include "query/engine.h"

namespace implistat::net {
namespace {

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A raw loopback listener that accepts nothing (or, with Accept(), takes
// connections but never speaks the protocol). Gives the tests a peer
// that is reachable at the TCP level but silent above it.
class SilentListener {
 public:
  explicit SilentListener(int backlog) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_OK(fd_ >= 0);
    int one = 1;
    setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    ASSERT_OK(::bind(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) == 0);
    ASSERT_OK(::listen(fd_, backlog) == 0);
    socklen_t len = sizeof(addr);
    ASSERT_OK(::getsockname(fd_, reinterpret_cast<struct sockaddr*>(&addr),
                            &len) == 0);
    port_ = ntohs(addr.sin_port);
  }

  ~SilentListener() {
    for (int fd : accepted_) ::close(fd);
    for (int fd : fillers_) ::close(fd);
    if (fd_ >= 0) ::close(fd_);
  }

  uint16_t port() const { return port_; }

  // Accepts one pending connection and keeps it open, silent; returns
  // its descriptor so a test can speak raw bytes on it.
  int AcceptOne() {
    int fd = ::accept(fd_, nullptr, nullptr);
    ASSERT_OK(fd >= 0);
    accepted_.push_back(fd);
    return fd;
  }

  // Fires non-blocking connects to fill the accept backlog so that the
  // next real connect hangs in the SYN queue instead of completing.
  void FillBacklog(int count) {
    for (int i = 0; i < count; ++i) {
      int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_OK(fd >= 0);
      int flags = ::fcntl(fd, F_GETFL, 0);
      ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
      struct sockaddr_in addr;
      std::memset(&addr, 0, sizeof(addr));
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(port_);
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr));
      fillers_.push_back(fd);
    }
    // Give the SYNs a moment to land in the accept queue.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

 private:
  // gtest ASSERT_* needs a void-returning context; this keeps the ctor
  // readable without scattering helper methods.
  static void ASSERT_OK(bool ok) { ASSERT_TRUE(ok) << strerror(errno); }

  int fd_ = -1;
  uint16_t port_ = 0;
  std::vector<int> accepted_;
  std::vector<int> fillers_;
};

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

TEST(NetTimeoutTest, ConnectTimeoutIsBounded) {
  SilentListener listener(/*backlog=*/0);
  // Saturate the accept queue: further connects get their SYN dropped and
  // would block for the OS connect timeout (minutes) without our bound.
  listener.FillBacklog(4);

  ClientOptions options;
  options.connect_timeout_ms = 300;
  int64_t start = NowMs();
  auto client = Client::Connect("127.0.0.1", listener.port(), options);
  int64_t elapsed = NowMs() - start;
  ASSERT_FALSE(client.ok());
  // The exact code depends on how the kernel reports the stall (timeout
  // vs refusal); the bound is the contract: seconds, not minutes.
  EXPECT_LT(elapsed, 5000) << client.status();
}

TEST(NetTimeoutTest, RequestDeadlineFiresOnSilentServer) {
  SilentListener listener(/*backlog=*/4);

  ClientOptions options;
  options.connect_timeout_ms = 1000;
  options.request_timeout_ms = 200;
  auto client = Client::Connect("127.0.0.1", listener.port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  listener.AcceptOne();

  int64_t start = NowMs();
  Status status = client->Ping();
  int64_t elapsed = NowMs() - start;
  EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded) << status;
  EXPECT_GE(elapsed, 150);
  EXPECT_LT(elapsed, 5000);

  // A missed deadline desynchronizes the stream: the connection is lost
  // and further requests refuse immediately.
  EXPECT_TRUE(client->connection_lost());
  EXPECT_EQ(client->Ping().code(), StatusCode::kUnavailable);
}

// WaitForTrigger timing out leaves the stream aligned (nothing was in
// flight), so the connection stays usable. A corrupt frame while waiting
// leaves it unparseable, so it must poison the connection exactly like a
// corrupt response does: the next request refuses without writing a
// byte. (A server would otherwise apply a request whose caller has
// already seen it fail.)
TEST(NetTimeoutTest, WaitForTriggerPoisonsOnCorruptFrameNotOnTimeout) {
  SilentListener listener(/*backlog=*/4);
  ClientOptions options;
  options.connect_timeout_ms = 1000;
  options.request_timeout_ms = 1000;
  auto client = Client::Connect("127.0.0.1", listener.port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const int peer = listener.AcceptOne();

  EXPECT_EQ(client->WaitForTrigger(50).code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(client->connection_lost());

  // A plausible length prefix (12) followed by bytes that are no frame.
  const char garbage[16] = {12, 0, 0, 0, 'n', 'o', 't', ' ',
                            'a', ' ', 'f', 'r', 'a', 'm', 'e', '!'};
  ASSERT_EQ(::send(peer, garbage, sizeof(garbage), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(garbage)));
  Status waited = client->WaitForTrigger(2000);
  EXPECT_FALSE(waited.ok());
  EXPECT_NE(waited.code(), StatusCode::kDeadlineExceeded) << waited;
  EXPECT_TRUE(client->connection_lost());

  EXPECT_EQ(client->Ping().code(), StatusCode::kUnavailable);
  char buf[64];
  EXPECT_EQ(::recv(peer, buf, sizeof(buf), MSG_DONTWAIT), -1)
      << "the poisoned client still wrote a request";
}

// A zero timeout still reads the socket once: a push that has already
// arrived is dispatched, not reported as a missed deadline.
TEST(NetTimeoutTest, WaitForTriggerZeroDispatchesAPushAlreadyArrived) {
  SilentListener listener(/*backlog=*/4);
  ClientOptions options;
  options.connect_timeout_ms = 1000;
  options.request_timeout_ms = 1000;
  auto client = Client::Connect("127.0.0.1", listener.port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  const int peer = listener.AcceptOne();
  int fired = 0;
  client->set_on_trigger(
      [&fired](const TriggerFired& push, const obs::SpanContext&) {
        ++fired;
        EXPECT_EQ(push.trigger, "surge");
        EXPECT_EQ(push.epoch, 5u);
      });

  TriggerFired push;
  push.trigger = "surge";
  push.epoch = 5;
  push.value = 1.0;
  const std::string frame =
      EncodePushFrame(MsgType::kTriggerFired, EncodeTriggerFired(push));
  ASSERT_EQ(::send(peer, frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  Status waited = client->WaitForTrigger(0);
  EXPECT_TRUE(waited.ok()) << waited;
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(client->connection_lost());
}

// With nothing to read, a zero timeout is a plain miss: the connection
// stays aligned and the next request goes through.
TEST(NetTimeoutTest, WaitForTriggerZeroWithoutAPushKeepsTheConnection) {
  auto engine = std::make_unique<QueryEngine>(TestSchema());
  ASSERT_TRUE(engine->Register(ExactSpec()).ok());
  Server server(engine.get(), ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  std::thread run([&server] { (void)server.Run(); });

  ClientOptions options;
  options.connect_timeout_ms = 1000;
  options.request_timeout_ms = 1000;
  auto client = Client::Connect("127.0.0.1", server.port(), options);
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_EQ(client->WaitForTrigger(0).code(), StatusCode::kDeadlineExceeded);
  EXPECT_FALSE(client->connection_lost());
  EXPECT_TRUE(client->Ping().ok());

  server.Shutdown();
  run.join();
}

TEST(NetTimeoutTest, ServerGoneIsConnectionLostAndReconnectResumes) {
  auto engine = std::make_unique<QueryEngine>(TestSchema());
  ASSERT_TRUE(engine->Register(ExactSpec()).ok());
  ServerOptions server_options;
  auto server = std::make_unique<Server>(engine.get(), server_options);
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();
  std::thread run([&server] { (void)server->Run(); });

  ClientOptions options;
  options.connect_timeout_ms = 1000;
  options.request_timeout_ms = 1000;
  auto client = Client::Connect("127.0.0.1", port, options);
  ASSERT_TRUE(client.ok()) << client.status();
  ASSERT_TRUE(client->Ping().ok());

  // Take the server down: in-flight and future requests are
  // CONNECTION_LOST (kUnavailable), distinguished from protocol errors.
  server->Shutdown();
  run.join();
  server.reset();
  Status down = client->Ping();
  EXPECT_EQ(down.code(), StatusCode::kUnavailable) << down;
  EXPECT_TRUE(client->connection_lost());

  // While the port is dark, Reconnect() fails but leaves the client
  // retryable.
  EXPECT_FALSE(client->Reconnect().ok());
  EXPECT_TRUE(client->connection_lost());

  // Restart on the same port (SO_REUSEADDR): Reconnect() resumes the
  // same Client object against the new process.
  auto engine2 = std::make_unique<QueryEngine>(TestSchema());
  ASSERT_TRUE(engine2->Register(ExactSpec()).ok());
  server_options.port = port;
  auto revived = std::make_unique<Server>(engine2.get(), server_options);
  ASSERT_TRUE(revived->Start().ok());
  std::thread run2([&revived] { (void)revived->Run(); });

  ASSERT_TRUE(client->Reconnect().ok());
  EXPECT_FALSE(client->connection_lost());
  EXPECT_TRUE(client->Ping().ok());
  auto query = client->Query({});
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->results.size(), 1u);

  revived->Shutdown();
  run2.join();
}

}  // namespace
}  // namespace implistat::net
