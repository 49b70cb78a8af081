#include "net/client.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "obs/trace.h"

namespace implistat::net {

namespace {

int64_t NowMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

Status SetBlocking(int fd, bool blocking) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::IOError(std::string("fcntl: ") + strerror(errno));
  }
  flags = blocking ? (flags & ~O_NONBLOCK) : (flags | O_NONBLOCK);
  if (fcntl(fd, F_SETFL, flags) < 0) {
    return Status::IOError(std::string("fcntl: ") + strerror(errno));
  }
  return Status::OK();
}

// Waits for `events` on `fd` until the absolute deadline (-1 = forever).
// OK means ready; kDeadlineExceeded means the deadline fired first, and
// kUnavailable that poll itself failed. A deadline already past still
// polls once without blocking, so data that has arrived is seen.
Status PollUntil(int fd, short events, int64_t deadline_ms,
                 const char* what) {
  for (;;) {
    int timeout = -1;
    if (deadline_ms >= 0) {
      timeout = static_cast<int>(std::max<int64_t>(0, deadline_ms - NowMs()));
    }
    struct pollfd pfd{fd, events, 0};
    int ready = poll(&pfd, 1, timeout);
    if (ready > 0) return Status::OK();
    if (ready == 0) {
      return Status::DeadlineExceeded(std::string(what) +
                                      ": deadline exceeded");
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(std::string("poll: ") + strerror(errno));
  }
}

// Dials host:port; a positive timeout bounds the TCP handshake via a
// non-blocking connect + poll (the socket is returned in blocking mode).
StatusOr<int> Dial(const std::string& host, uint16_t port,
                   int64_t connect_timeout_ms) {
  struct sockaddr_in addr;
  memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  const std::string numeric = host == "localhost" ? "127.0.0.1" : host;
  if (inet_pton(AF_INET, numeric.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad host address: " + host);
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  Status status = Status::OK();
  if (connect_timeout_ms > 0) {
    status = SetBlocking(fd, false);
    if (status.ok() &&
        connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      if (errno == EINPROGRESS) {
        status = PollUntil(fd, POLLOUT, NowMs() + connect_timeout_ms,
                           "connect");
        if (status.ok()) {
          int err = 0;
          socklen_t len = sizeof(err);
          if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
              err != 0) {
            status = Status::IOError(std::string("connect: ") +
                                     strerror(err != 0 ? err : errno));
          }
        }
      } else {
        status = Status::IOError(std::string("connect: ") + strerror(errno));
      }
    }
    if (status.ok()) status = SetBlocking(fd, true);
  } else if (connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                     sizeof(addr)) != 0) {
    status = Status::IOError(std::string("connect: ") + strerror(errno));
  }
  if (!status.ok()) {
    close(fd);
    return status;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

StatusOr<Client> Client::Connect(const std::string& host, uint16_t port,
                                 ClientOptions options) {
  IMPLISTAT_ASSIGN_OR_RETURN(int fd,
                             Dial(host, port, options.connect_timeout_ms));
  return Client(fd, host, port, std::move(options));
}

Client::Client(int fd, std::string host, uint16_t port, ClientOptions options)
    : fd_(fd),
      host_(std::move(host)),
      port_(port),
      options_(options),
      decoder_(std::make_unique<FrameDecoder>(options.max_frame_bytes)) {}

Client::Client(Client&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      lost_(other.lost_),
      host_(std::move(other.host_)),
      port_(other.port_),
      options_(other.options_),
      decoder_(std::move(other.decoder_)),
      pipeline_(std::move(other.pipeline_)),
      on_trigger_(std::move(other.on_trigger_)) {}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    lost_ = other.lost_;
    host_ = std::move(other.host_);
    port_ = other.port_;
    options_ = other.options_;
    decoder_ = std::move(other.decoder_);
    pipeline_ = std::move(other.pipeline_);
    on_trigger_ = std::move(other.on_trigger_);
  }
  return *this;
}

Client::~Client() {
  if (fd_ >= 0) close(fd_);
}

Status Client::Reconnect() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
  lost_ = true;  // stays lost if the dial fails
  IMPLISTAT_ASSIGN_OR_RETURN(int fd,
                             Dial(host_, port_, options_.connect_timeout_ms));
  fd_ = fd;
  lost_ = false;
  // A fresh decoder: any half-buffered response from the old connection
  // is garbage on the new one. In-flight pipelined requests died with
  // the old connection; their Awaits must not eat new responses.
  decoder_ = std::make_unique<FrameDecoder>(options_.max_frame_bytes);
  pipeline_.clear();
  return Status::OK();
}

Status Client::MarkLost(Status status) {
  lost_ = true;
  return status;
}

int64_t Client::RequestDeadlineMs() const {
  return options_.request_timeout_ms > 0
             ? NowMs() + options_.request_timeout_ms
             : -1;
}

Status Client::Send(std::string_view bytes, int64_t deadline_ms) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    // MSG_DONTWAIT on a blocking socket: try the write, and when the
    // send buffer is full, wait for EITHER direction — draining inbound
    // responses into the decode buffer is what frees the server to read
    // (and therefore, eventually, our send buffer). Waiting on POLLOUT
    // alone deadlocks once both directions fill.
    ssize_t n = send(fd_, bytes.data() + sent, bytes.size() - sent,
                     MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
      return MarkLost(Status::Unavailable(
          std::string("connection lost: send: ") + strerror(errno)));
    }
    Status ready = PollUntil(fd_, POLLOUT | POLLIN, deadline_ms, "send");
    if (!ready.ok()) return MarkLost(std::move(ready));
    char buf[65536];
    ssize_t r = recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (r > 0) {
      Status appended =
          decoder_->Append(std::string_view(buf, static_cast<size_t>(r)));
      if (!appended.ok()) return MarkLost(std::move(appended));
    } else if (r == 0) {
      return MarkLost(Status::Unavailable(
          "connection lost: server closed the connection mid-send"));
    }
  }
  return Status::OK();
}

StatusOr<Frame> Client::NextFrame(int64_t deadline_ms) {
  char buf[65536];
  for (;;) {
    IMPLISTAT_ASSIGN_OR_RETURN(std::optional<Frame> frame, decoder_->Next());
    if (frame.has_value()) return *std::move(frame);
    if (deadline_ms >= 0) {
      IMPLISTAT_RETURN_NOT_OK(PollUntil(fd_, POLLIN, deadline_ms, "recv"));
    }
    ssize_t n = recv(fd_, buf, sizeof(buf), 0);
    if (n > 0) {
      IMPLISTAT_RETURN_NOT_OK(
          decoder_->Append(std::string_view(buf, static_cast<size_t>(n))));
      continue;
    }
    if (n == 0) {
      return Status::Unavailable(
          "connection lost: server closed the connection");
    }
    if (errno == EINTR) continue;
    return Status::Unavailable(std::string("connection lost: recv: ") +
                               strerror(errno));
  }
}

StatusOr<Frame> Client::ReadResponse(MsgType expected_type,
                                     int64_t deadline_ms) {
  for (;;) {
    // A corrupt frame, a missed deadline or a dead socket leaves the
    // stream unaligned; no later response can be trusted to line up with
    // its request.
    StatusOr<Frame> frame = NextFrame(deadline_ms);
    if (!frame.ok()) return MarkLost(frame.status());
    // Unsolicited pushes interleave with responses on a subscribed
    // connection; peel them off before the positional FIFO match so
    // pipelined correlation never slips.
    if (frame->is_response() && frame->type() == MsgType::kTriggerFired) {
      IMPLISTAT_RETURN_NOT_OK(DispatchTriggerPush(*frame));
      continue;
    }
    if (!frame->is_response() || frame->type() != expected_type) {
      return MarkLost(Status::Internal(
          "out-of-order response: expected " +
          std::string(MsgTypeName(expected_type)) + ", got tag " +
          std::to_string(static_cast<int>(frame->tag))));
    }
    return frame;
  }
}

Status Client::SendRaw(std::string_view bytes) {
  if (connection_lost()) {
    return Status::Unavailable("connection lost (call Reconnect)");
  }
  return Send(bytes, -1);
}

Status Client::SubmitFrame(MsgType type, std::string_view frame,
                           int64_t deadline_ms) {
  IMPLISTAT_RETURN_NOT_OK(Send(frame, deadline_ms));
  pipeline_.push_back(type);
  return Status::OK();
}

StatusOr<std::string> Client::AwaitResponse(int64_t deadline_ms) {
  IMPLISTAT_ASSIGN_OR_RETURN(Frame frame,
                             ReadResponse(pipeline_.front(), deadline_ms));
  pipeline_.pop_front();
  IMPLISTAT_ASSIGN_OR_RETURN(auto decoded,
                             DecodeResponsePayload(frame.payload));
  IMPLISTAT_RETURN_NOT_OK(decoded.first);
  return std::string(decoded.second);
}

Status Client::Submit(MsgType type, std::string_view bytes,
                      bool pre_encoded) {
  if (connection_lost()) {
    return Status::Unavailable("connection lost (call Reconnect)");
  }
  if (pipeline_.size() >= options_.max_in_flight) {
    return Status::ResourceExhausted(
        "pipeline window full (" + std::to_string(pipeline_.size()) +
        " in flight); Await() to make room");
  }
  const int64_t deadline_ms = RequestDeadlineMs();
  if (pre_encoded) return SubmitFrame(type, bytes, deadline_ms);
  return SubmitFrame(
      type, EncodeRequestFrame(type, bytes, obs::Tracer::CurrentContext()),
      deadline_ms);
}

StatusOr<std::string> Client::Await() {
  if (pipeline_.empty()) {
    return Status::FailedPrecondition("Await() with nothing in flight");
  }
  if (connection_lost()) {
    return Status::Unavailable("connection lost (call Reconnect)");
  }
  return AwaitResponse(RequestDeadlineMs());
}

StatusOr<std::string> Client::RoundTrip(MsgType type,
                                        std::string_view payload) {
  if (connection_lost()) {
    return Status::Unavailable("connection lost (call Reconnect)");
  }
  if (!pipeline_.empty()) {
    return Status::FailedPrecondition(
        "RoundTrip with " + std::to_string(pipeline_.size()) +
        " pipelined requests in flight; Await() them first");
  }
  // The RPC span covers send + wait + decode; its context rides the
  // frame so the server's handle span joins the same trace. When the
  // caller already has a span open (a supervisor pull, a traced tool)
  // this nests under it; otherwise it roots a new sampled-1-in-N trace.
  obs::ScopedSpan span("client.roundtrip", "client");
  span.SetDetail(MsgTypeName(type));
  span.Annotate("request_bytes", payload.size());
  // One deadline for the whole exchange: send, wait and receive.
  const int64_t deadline_ms = RequestDeadlineMs();
  IMPLISTAT_RETURN_NOT_OK(SubmitFrame(
      type, EncodeRequestFrame(type, payload, span.context()), deadline_ms));
  IMPLISTAT_ASSIGN_OR_RETURN(std::string body, AwaitResponse(deadline_ms));
  span.Annotate("response_bytes", body.size());
  return body;
}

Status Client::Ping() { return RoundTrip(MsgType::kPing, {}).status(); }

StatusOr<uint64_t> Client::ObserveBatch(const ObserveBatchRequest& request) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(MsgType::kObserveBatch, EncodeObserveBatchRequest(request)));
  return DecodeObserveBatchResponse(body);
}

StatusOr<QueryResponse> Client::Query(const std::vector<uint32_t>& ids) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string body, RoundTrip(MsgType::kQuery, EncodeQueryRequest(ids)));
  return DecodeQueryResponse(body);
}

StatusOr<SnapshotResponse> Client::Snapshot(uint32_t query_id) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(MsgType::kSnapshot, EncodeSnapshotRequest(query_id)));
  return DecodeSnapshotResponse(body);
}

StatusOr<DeltaSnapshotResponse> Client::SnapshotDelta(uint32_t query_id,
                                                      uint64_t since_epoch,
                                                      uint8_t capabilities) {
  DeltaSnapshotRequest request;
  request.query_id = query_id;
  request.since_epoch = since_epoch;
  request.capabilities = capabilities;
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string body, RoundTrip(MsgType::kSnapshotDelta,
                                  EncodeDeltaSnapshotRequest(request)));
  return DecodeDeltaSnapshotResponse(body);
}

Status Client::Merge(uint32_t query_id, std::string_view snapshot) {
  return RoundTrip(MsgType::kMerge,
                   EncodeMergeRequest(query_id, snapshot))
      .status();
}

StatusOr<std::string> Client::Metrics() {
  return RoundTrip(MsgType::kMetrics, {});
}

StatusOr<std::string> Client::TraceDump() {
  return RoundTrip(MsgType::kTraceDump, {});
}

StatusOr<std::string> Client::Checkpoint() {
  IMPLISTAT_ASSIGN_OR_RETURN(std::string body,
                             RoundTrip(MsgType::kCheckpoint, {}));
  return DecodeCheckpointResponse(body);
}

Status Client::Shutdown() {
  return RoundTrip(MsgType::kShutdown, {}).status();
}

Status Client::DispatchTriggerPush(const Frame& frame) {
  StatusOr<TriggerFired> fired = DecodeTriggerFired(frame.payload);
  if (!fired.ok()) {
    return MarkLost(Status::Internal("malformed TRIGGER_FIRED push: " +
                                     fired.status().ToString()));
  }
  if (on_trigger_) on_trigger_(*fired, frame.trace);
  return Status::OK();
}

StatusOr<SubscribeResponse> Client::Subscribe(const SubscribeRequest& request) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string body,
      RoundTrip(MsgType::kSubscribe, EncodeSubscribeRequest(request)));
  return DecodeSubscribeResponse(body);
}

Status Client::Unsubscribe() {
  return RoundTrip(MsgType::kUnsubscribe, {}).status();
}

Status Client::WaitForTrigger(int64_t timeout_ms) {
  if (connection_lost()) {
    return Status::Unavailable("connection lost (call Reconnect)");
  }
  if (!pipeline_.empty()) {
    return Status::FailedPrecondition(
        "WaitForTrigger with pipelined requests in flight; their Awaits "
        "dispatch pushes");
  }
  const int64_t deadline_ms = timeout_ms >= 0 ? NowMs() + timeout_ms : -1;
  StatusOr<Frame> frame = NextFrame(deadline_ms);
  if (!frame.ok()) {
    // A timeout here does NOT poison the connection — nothing is in
    // flight, so the stream is still aligned; the caller may keep
    // waiting or send requests. Every other failure does.
    if (frame.status().code() == StatusCode::kDeadlineExceeded) {
      return frame.status();
    }
    return MarkLost(frame.status());
  }
  if (!frame->is_response() || frame->type() != MsgType::kTriggerFired) {
    return MarkLost(Status::Internal(
        "unexpected frame while waiting for a push: tag " +
        std::to_string(static_cast<int>(frame->tag))));
  }
  return DispatchTriggerPush(*frame);
}

}  // namespace implistat::net
