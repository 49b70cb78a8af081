#include "net/reactor.h"

#include <errno.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "net/batch_decode.h"
#include "net/messages.h"
#include "net/server.h"
#include "obs/export_prometheus.h"
#include "obs/log.h"

namespace implistat::net {

namespace {

int64_t NowMs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

uint64_t NowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace

const NetMetrics& NetMetrics::Get() {
  static const NetMetrics metrics = [] {
    auto& reg = obs::MetricsRegistry::Global();
    NetMetrics m{};
    for (int t = 1; t <= kMaxType; ++t) {
      const char* name = MsgTypeName(static_cast<MsgType>(t));
      m.requests_by_type[t] = reg.GetCounter(
          "implistat_net_requests_total", "Requests handled, by type", "type",
          name);
      m.duration_by_type[t] = reg.GetHistogram(
          "implistat_net_request_duration_ns",
          "Wall time from complete request frame to enqueued response",
          "type", name);
      m.request_bytes_by_type[t] = reg.GetHistogram(
          "implistat_net_request_payload_bytes",
          "Request payload size per handled frame", "type", name);
      m.response_bytes_by_type[t] = reg.GetHistogram(
          "implistat_net_response_payload_bytes",
          "Response payload size per enqueued response", "type", name);
    }
    m.bytes_rx = reg.GetCounter("implistat_net_bytes_rx_total",
                                "Bytes read from client sockets");
    m.bytes_tx = reg.GetCounter("implistat_net_bytes_tx_total",
                                "Bytes written to client sockets");
    m.frame_errors = reg.GetCounter(
        "implistat_net_frame_errors_total",
        "Connections dropped for framing/CRC violations");
    m.connections = reg.GetGauge("implistat_net_connections",
                                 "Currently open client connections");
    m.write_buffer_bytes = reg.GetGauge(
        "implistat_net_write_buffer_bytes",
        "Pending response bytes across all connections (queue depth)");
    m.writer_queue_depth = reg.GetGauge(
        "implistat_writer_queue_depth",
        "Engine ops handed off by reactors, not yet applied by the writer");
    return m;
  }();
  return metrics;
}

Reactor::Reactor(Server* server, int index, ReactorConfig config)
    : server_(server),
      index_(index),
      index_label_(std::to_string(index)),
      config_(config) {}

Reactor::~Reactor() {
  Join();
  // Sockets handed over but never registered (the loop never ran).
  for (int fd : inbox_fds_) close(fd);
  for (auto& entry : conns_) close(entry.second->fd);
  conns_.clear();
  if (event_fd_ >= 0) close(event_fd_);
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

Status Reactor::Init() {
  metrics_ = &NetMetrics::Get();
  auto& reg = obs::MetricsRegistry::Global();
  reactor_connections_ =
      reg.GetGauge("implistat_reactor_connections",
                   "Open connections owned by each reactor", "reactor",
                   index_label_);
  reactor_wakeups_ =
      reg.GetCounter("implistat_reactor_wakeups_total",
                     "epoll_wait returns per reactor", "reactor",
                     index_label_);
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) {
    return Status::IOError(std::string("epoll_create1: ") + strerror(errno));
  }
  event_fd_ = eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (event_fd_ < 0) {
    return Status::IOError(std::string("eventfd: ") + strerror(errno));
  }
  struct epoll_event ev;
  std::memset(&ev, 0, sizeof(ev));
  ev.events = EPOLLIN;  // level-triggered: drained on every wakeup
  ev.data.u64 = 0;      // conn ids start at 1
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev) != 0) {
    return Status::IOError(std::string("epoll_ctl(eventfd): ") +
                           strerror(errno));
  }
  return Status::OK();
}

void Reactor::Start() {
  thread_ = std::thread([this] { Loop(); });
}

void Reactor::Join() {
  if (thread_.joinable()) thread_.join();
}

void Reactor::AddConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    inbox_fds_.push_back(fd);
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
}

void Reactor::PostCompletions(std::vector<Completion> completions) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (inbox_completions_.empty()) {
      inbox_completions_ = std::move(completions);
    } else {
      for (auto& completion : completions) {
        inbox_completions_.push_back(std::move(completion));
      }
    }
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
}

void Reactor::PostPushes(std::vector<TriggerPush> pushes) {
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    if (inbox_pushes_.empty()) {
      inbox_pushes_ = std::move(pushes);
    } else {
      for (auto& push : pushes) {
        inbox_pushes_.push_back(std::move(push));
      }
    }
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
}

void Reactor::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
}

void Reactor::RequestExit(int64_t deadline_ms) {
  exit_deadline_ms_.store(deadline_ms, std::memory_order_relaxed);
  exiting_.store(true, std::memory_order_release);
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = write(event_fd_, &one, sizeof(one));
}

void Reactor::ShipOps() {
  if (pending_ops_.empty()) return;
  server_->EnqueueOps(std::move(pending_ops_));
  pending_ops_.clear();
}

int Reactor::EpollTimeoutMs(int64_t now_ms, bool exiting) const {
  int64_t timeout = -1;
  if (config_.idle_timeout_ms > 0 && !conns_.empty()) {
    int64_t soonest = config_.idle_timeout_ms;
    for (const auto& entry : conns_) {
      const int64_t left =
          entry.second->last_active_ms + config_.idle_timeout_ms - now_ms;
      soonest = std::min(soonest, std::max<int64_t>(left, 0));
    }
    timeout = std::min<int64_t>(soonest, 60'000) + 1;
  }
  if (exiting) {
    const int64_t left =
        std::max<int64_t>(
            exit_deadline_ms_.load(std::memory_order_relaxed) - now_ms, 0) +
        1;
    timeout = timeout < 0 ? left : std::min(timeout, left);
  }
  return static_cast<int>(timeout);
}

void Reactor::Loop() {
  struct epoll_event events[64];
  for (;;) {
    const bool exiting = exiting_.load(std::memory_order_acquire);
    if (exiting) {
      bool busy = false;
      for (const auto& entry : conns_) {
        if (!entry.second->dead && entry.second->pending() > 0) {
          busy = true;
          break;
        }
      }
      if (!busy) {
        std::lock_guard<std::mutex> lock(inbox_mu_);
        busy = !inbox_completions_.empty();
      }
      if (!busy ||
          NowMs() >= exit_deadline_ms_.load(std::memory_order_relaxed)) {
        break;
      }
    }
    const int timeout = EpollTimeoutMs(NowMs(), exiting);
    const int n = epoll_wait(epoll_fd_, events, 64, timeout);
    if (n < 0) {
      if (errno == EINTR) continue;
      obs::LogEvent(obs::LogLevel::kError, "net.reactor", "epoll_error")
          .U64("reactor", static_cast<uint64_t>(index_))
          .Str("error", strerror(errno));
      break;
    }
    reactor_wakeups_->Increment();
    bool woken = false;
    for (int i = 0; i < n; ++i) {
      if (events[i].data.u64 == 0) {
        woken = true;
        continue;
      }
      HandleConnEvent(events[i].data.u64, events[i].events);
    }
    if (woken) {
      uint64_t drained;
      while (read(event_fd_, &drained, sizeof(drained)) > 0) {
      }
    }
    ProcessInbox();
    ShipOps();
    // The quiesce ack comes after this round's ops have shipped, and
    // reads are suppressed from the instant draining_ is set — so after
    // the ack, the writer will never see another op from this reactor.
    if (draining_.load(std::memory_order_acquire) && !drain_acked_) {
      drain_acked_ = true;
      server_->NotifyQuiesced();
    }
    if (config_.idle_timeout_ms > 0) SweepIdle(NowMs());
  }
  for (auto& entry : conns_) {
    Conn* conn = entry.second.get();
    metrics_->write_buffer_bytes->Add(
        -static_cast<int64_t>(conn->pending()));
    metrics_->connections->Add(-1);
    close(conn->fd);
  }
  conns_.clear();
  reactor_connections_->Set(0);
}

void Reactor::ProcessInbox() {
  std::vector<int> fds;
  std::vector<Completion> completions;
  std::vector<TriggerPush> pushes;
  {
    std::lock_guard<std::mutex> lock(inbox_mu_);
    fds.swap(inbox_fds_);
    completions.swap(inbox_completions_);
    pushes.swap(inbox_pushes_);
  }
  const bool draining = draining_.load(std::memory_order_acquire);
  for (int fd : fds) {
    if (draining) {  // the writer stopped accepting; stragglers close
      close(fd);
      continue;
    }
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(id, fd, config_.max_frame_bytes);
    conn->last_active_ms = NowMs();
    struct epoll_event ev;
    std::memset(&ev, 0, sizeof(ev));
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.u64 = id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      close(fd);
      continue;
    }
    conns_.emplace(id, std::move(conn));
    metrics_->connections->Add(1);
    reactor_connections_->Set(static_cast<int64_t>(conns_.size()));
    obs::LogEvent(obs::LogLevel::kDebug, "net.reactor", "conn_accept")
        .U64("fd", static_cast<uint64_t>(fd))
        .U64("reactor", static_cast<uint64_t>(index_))
        .U64("connections", conns_.size());
  }
  // Completions: fill slots, ship contiguous prefixes, then resume reads
  // on connections whose pipeline dropped back under the bound.
  std::vector<uint64_t> resumed;
  for (Completion& completion : completions) {
    auto it = conns_.find(completion.conn_id);
    if (it == conns_.end()) continue;  // closed while the op was in flight
    Conn* conn = it->second.get();
    if (conn->dead) continue;
    const bool was_paused = conn->read_paused;
    CompleteSlot(conn, completion.seq, completion.status, completion.body,
                 completion.close_conn);
    if (was_paused && !conn->read_paused && !conn->dead && !draining) {
      resumed.push_back(conn->id);
    }
  }
  for (const Completion& completion : completions) {
    ReapIfDead(completion.conn_id);
  }
  // Pushes ride outside the slot FIFO: whole pre-encoded frames appended
  // straight to the write buffer, so the k-th-response ordering of real
  // requests is untouched. A push for a connection that closed while the
  // firing was in flight is dropped (the implicit UNSUBSCRIBE the close
  // shipped prunes the writer's registry).
  for (TriggerPush& push : pushes) {
    auto it = conns_.find(push.conn_id);
    if (it == conns_.end() || it->second->dead) continue;
    DeliverPush(it->second.get(), push.frame);
    ReapIfDead(push.conn_id);
  }
  for (uint64_t id : resumed) {
    auto it = conns_.find(id);
    if (it == conns_.end() || it->second->dead) continue;
    // Frames buffered past the pause point parse now; edge-triggered
    // epoll will not re-announce bytes we already left in the kernel, so
    // the resume must drive the read path itself.
    HandleReadable(it->second.get());
    ReapIfDead(id);
  }
}

void Reactor::HandleConnEvent(uint64_t id, uint32_t events) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;  // closed earlier this round
  Conn* conn = it->second.get();
  if (conn->dead) {
    ReapIfDead(id);
    return;
  }
  if ((events & EPOLLERR) != 0 ||
      ((events & EPOLLHUP) != 0 && (events & EPOLLIN) == 0)) {
    conn->dead = true;
    ReapIfDead(id);
    return;
  }
  if ((events & (EPOLLIN | EPOLLRDHUP)) != 0 &&
      !draining_.load(std::memory_order_acquire)) {
    HandleReadable(conn);
  }
  if (!conn->dead && (events & EPOLLOUT) != 0 && conn->pending() > 0) {
    if (!FlushWrites(conn).ok()) {
      conn->dead = true;
    } else if (conn->close_after_flush && conn->pending() == 0) {
      conn->dead = true;
    }
  }
  ReapIfDead(id);
}

void Reactor::HandleReadable(Conn* conn) {
  // A resume (or a frame left half-parsed at the pause point) starts
  // from the decoder's buffer, not the socket.
  Status status = ParseFrames(conn);
  char buf[65536];
  while (status.ok() && !conn->read_paused && !conn->close_after_flush &&
         !conn->dead) {
    const ssize_t n = recv(conn->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      metrics_->bytes_rx->Increment(static_cast<uint64_t>(n));
      conn->last_active_ms = NowMs();
      status =
          conn->decoder.Append(std::string_view(buf, static_cast<size_t>(n)));
      if (status.ok()) status = ParseFrames(conn);
      // A short read drained the kernel buffer; edge-triggered epoll
      // re-arms on the next arrival.
      if (n < static_cast<ssize_t>(sizeof(buf))) break;
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // An orderly close (0) or a transport failure such as a reset ends
    // the connection, but neither is a framing error.
    conn->dead = true;
    break;
  }
  if (!status.ok()) {
    // Only the frame decoder's sticky errors reach here: bad magic,
    // version, CRC or framing, or an overrun of the frame bound.
    metrics_->frame_errors->Increment();
    obs::LogEvent(obs::LogLevel::kWarn, "net.reactor", "conn_error")
        .U64("fd", static_cast<uint64_t>(conn->fd))
        .U64("reactor", static_cast<uint64_t>(index_))
        .Str("error", status.ToString());
    conn->dead = true;
  }
}

Status Reactor::ParseFrames(Conn* conn) {
  while (!conn->read_paused && !conn->close_after_flush && !conn->dead) {
    IMPLISTAT_ASSIGN_OR_RETURN(std::optional<FrameView> view,
                               conn->decoder.NextView());
    if (!view.has_value()) break;
    HandleFrame(conn, *view);
  }
  return Status::OK();
}

void Reactor::HandleFrame(Conn* conn, const FrameView& view) {
  const uint64_t start_ns = NowNs();
  // The handle span adopts the client's trace context when the frame
  // carried one, so the client's RPC span and every server phase
  // share one trace id across the socket.
  obs::ScopedSpan handle("server.handle", "server", view.trace);
  handle.SetDetail(MsgTypeName(view.type()));
  handle.Annotate("payload_bytes", view.payload.size());
  handle.Annotate("reactor", static_cast<uint64_t>(index_));
  const uint8_t raw = view.tag & ~kResponseFlag;
  if (raw >= 1 && raw <= NetMetrics::kMaxType) {
    metrics_->requests_by_type[raw]->Increment();
    metrics_->request_bytes_by_type[raw]->Record(view.payload.size());
  }
  if (view.is_response()) {
    // A server never receives responses; protocol confusion is fatal.
    conn->close_after_flush = true;
    return;
  }

  Slot& slot = conn->slots.emplace_back();
  slot.seq = conn->next_seq++;
  slot.type = view.type();
  slot.start_ns = start_ns;
  slot.trace = handle.context();
  const uint64_t seq = slot.seq;
  if (conn->slots.size() >= config_.max_pipeline_depth) {
    conn->read_paused = true;
  }

  EngineOp op;
  op.type = view.type();
  op.reactor = index_;
  op.conn_id = conn->id;
  op.seq = seq;
  op.trace = handle.context();

  switch (view.type()) {
    case MsgType::kPing:
      CompleteSlot(conn, seq, Status::OK(), {}, false);
      return;
    case MsgType::kMetrics:
      // Registry snapshots are thread-safe; no engine involved.
      CompleteSlot(conn, seq, Status::OK(),
                   obs::WriteMetricsPrometheus(
                       obs::MetricsRegistry::Global().Snapshot()),
                   false);
      return;
    case MsgType::kTraceDump:
      CompleteSlot(conn, seq, Status::OK(),
                   obs::WriteTraceJson(obs::Tracer::Snapshot()), false);
      return;
    case MsgType::kObserveBatch: {
      // The zero-copy fast path: tuples are validated against the schema
      // and decoded straight out of the frame buffer here, so the writer
      // only ever applies pre-chewed ids.
      StatusOr<size_t> tuples = [&] {
        obs::ScopedSpan decode("server.decode", "server");
        return DecodeObserveBatchInto(view.payload, *config_.schema,
                                      *config_.dicts, &op.flat);
      }();
      if (!tuples.ok()) {
        CompleteSlot(conn, seq, tuples.status(), {}, false);
        return;
      }
      handle.Annotate("tuples", *tuples);
      break;
    }
    case MsgType::kQuery: {
      StatusOr<std::vector<uint32_t>> ids = [&] {
        obs::ScopedSpan decode("server.decode", "server");
        return DecodeQueryRequest(view.payload);
      }();
      if (!ids.ok()) {
        CompleteSlot(conn, seq, ids.status(), {}, false);
        return;
      }
      op.query_ids = *std::move(ids);
      break;
    }
    case MsgType::kSnapshot: {
      StatusOr<uint32_t> id = DecodeSnapshotRequest(view.payload);
      if (!id.ok()) {
        CompleteSlot(conn, seq, id.status(), {}, false);
        return;
      }
      op.query_id = *id;
      break;
    }
    case MsgType::kMerge: {
      auto decoded = DecodeMergeRequest(view.payload);
      if (!decoded.ok()) {
        CompleteSlot(conn, seq, decoded.status(), {}, false);
        return;
      }
      op.query_id = decoded->first;
      op.snapshot = std::string(decoded->second);  // the view dies with us
      break;
    }
    case MsgType::kSnapshotDelta: {
      auto decoded = DecodeDeltaSnapshotRequest(view.payload);
      if (!decoded.ok()) {
        CompleteSlot(conn, seq, decoded.status(), {}, false);
        return;
      }
      op.query_id = decoded->query_id;
      op.since_epoch = decoded->since_epoch;
      op.capabilities = decoded->capabilities;
      break;
    }
    case MsgType::kSubscribe: {
      auto decoded = DecodeSubscribeRequest(view.payload);
      if (!decoded.ok()) {
        CompleteSlot(conn, seq, decoded.status(), {}, false);
        return;
      }
      op.statements = std::move(decoded->statements);
      op.trigger_names = std::move(decoded->triggers);
      // Marked eagerly so a close always prunes the writer's registry;
      // if the writer rejects the subscribe, the implicit UNSUBSCRIBE
      // finds nothing and is a no-op.
      conn->subscribed = true;
      break;
    }
    case MsgType::kUnsubscribe: {
      if (!view.payload.empty()) {
        CompleteSlot(conn, seq,
                     Status::InvalidArgument(
                         "unsubscribe: unexpected request payload"),
                     {}, false);
        return;
      }
      conn->subscribed = false;
      break;
    }
    case MsgType::kCheckpoint:
      break;  // no payload; the writer owns the path check
    case MsgType::kShutdown:
      obs::LogEvent(obs::LogLevel::kInfo, "net.reactor", "shutdown_request")
          .U64("fd", static_cast<uint64_t>(conn->fd))
          .U64("reactor", static_cast<uint64_t>(index_));
      break;
    default:
      CompleteSlot(conn, seq,
                   Status::InvalidArgument(
                       "unknown request type " +
                       std::to_string(static_cast<int>(view.tag))),
                   {}, false);
      return;
  }
  op.enqueue_ns = NowNs();
  pending_ops_.push_back(std::move(op));
}

void Reactor::CompleteSlot(Conn* conn, uint64_t seq, const Status& status,
                           std::string_view body, bool close_conn) {
  if (conn->slots.empty() || seq < conn->slots.front().seq) return;
  const size_t idx = static_cast<size_t>(seq - conn->slots.front().seq);
  if (idx >= conn->slots.size()) return;
  Slot& slot = conn->slots[idx];
  {
    obs::ScopedSpan span("server.encode", "server", slot.trace);
    span.Annotate("body_bytes", body.size());
    const int t = static_cast<int>(slot.type);
    if (t >= 1 && t <= NetMetrics::kMaxType) {
      metrics_->response_bytes_by_type[t]->Record(body.size());
      metrics_->duration_by_type[t]->Record(NowNs() - slot.start_ns);
    }
    slot.frame =
        EncodeResponseFrame(slot.type, EncodeResponsePayload(status, body));
  }
  slot.done = true;
  slot.close_conn = close_conn;
  conn->last_trace = slot.trace;
  AppendCompletedPrefix(conn);
  MaybeFlush(conn);
  if (conn->read_paused && !conn->close_after_flush && !conn->dead &&
      conn->slots.size() < config_.max_pipeline_depth) {
    // Unpause; the caller re-enters the read path at a safe depth (a
    // local completion is already inside ParseFrames' loop, a writer
    // completion resumes from ProcessInbox).
    conn->read_paused = false;
  }
}

void Reactor::DeliverPush(Conn* conn, const std::string& frame) {
  if (conn->close_after_flush) return;  // already past its last frame
  if (conn->pending() + frame.size() > config_.max_write_buffer_bytes) {
    // A subscriber that cannot drain its firings gets the same
    // slow-consumer treatment as an oversized response — there is no
    // request to answer with an error, so the connection just closes.
    obs::LogEvent(obs::LogLevel::kWarn, "net.reactor", "push_backpressure")
        .U64("fd", static_cast<uint64_t>(conn->fd))
        .U64("push_bytes", frame.size())
        .U64("pending_bytes", conn->pending())
        .U64("bound_bytes", config_.max_write_buffer_bytes);
    conn->close_after_flush = true;
    MaybeFlush(conn);
    return;
  }
  const int t = static_cast<int>(MsgType::kTriggerFired);
  metrics_->response_bytes_by_type[t]->Record(frame.size());
  if (conn->write_pos > 0) {
    conn->write_buf.erase(0, conn->write_pos);
    conn->write_pos = 0;
  }
  conn->write_buf.append(frame);
  metrics_->write_buffer_bytes->Add(static_cast<int64_t>(frame.size()));
  MaybeFlush(conn);
}

void Reactor::AppendCompletedPrefix(Conn* conn) {
  const int64_t before = static_cast<int64_t>(conn->pending());
  while (!conn->slots.empty() && conn->slots.front().done) {
    Slot& slot = conn->slots.front();
    if (conn->pending() + slot.frame.size() >
        config_.max_write_buffer_bytes) {
      // Backpressure: the consumer is not keeping up. Drop the oversized
      // result, answer with a small RESOURCE_EXHAUSTED instead, and
      // close once it flushes — pending bytes stay bounded by the cap
      // plus one error frame.
      obs::LogEvent(obs::LogLevel::kWarn, "net.reactor", "backpressure_close")
          .U64("fd", static_cast<uint64_t>(conn->fd))
          .Str("type", MsgTypeName(slot.type))
          .U64("response_bytes", slot.frame.size())
          .U64("pending_bytes", conn->pending())
          .U64("bound_bytes", config_.max_write_buffer_bytes);
      slot.frame = EncodeResponseFrame(
          slot.type,
          EncodeResponsePayload(Status::ResourceExhausted(
              "response exceeds the connection's write-buffer bound")));
      conn->close_after_flush = true;
    }
    if (conn->write_pos > 0) {
      conn->write_buf.erase(0, conn->write_pos);
      conn->write_pos = 0;
    }
    conn->write_buf.append(slot.frame);
    if (slot.close_conn) conn->close_after_flush = true;
    const bool stop = conn->close_after_flush;
    conn->slots.pop_front();
    if (stop) {
      // Requests behind the cut-off are never answered; their writer
      // completions (if any) will find the connection gone.
      conn->slots.clear();
      break;
    }
  }
  metrics_->write_buffer_bytes->Add(static_cast<int64_t>(conn->pending()) -
                                    before);
}

void Reactor::MaybeFlush(Conn* conn) {
  if (conn->dead) return;
  if (conn->pending() == 0) {
    if (conn->close_after_flush) conn->dead = true;
    return;
  }
  // Hold small responses back while earlier requests are still open:
  // one pipelined window then flushes as one burst, and the write-buffer
  // bound keeps its accumulate-before-flush semantics.
  if (!conn->close_after_flush && !conn->slots.empty() &&
      conn->pending() < kFlushLowWaterBytes) {
    return;
  }
  if (!FlushWrites(conn).ok()) {
    conn->dead = true;
    return;
  }
  if (conn->close_after_flush && conn->pending() == 0) conn->dead = true;
}

Status Reactor::FlushWrites(Conn* conn) {
  // The write phase runs after the handle span closed, so it parents
  // itself on the most recent completed request's context.
  obs::ScopedSpan span("server.write", "server", conn->last_trace);
  span.Annotate("pending_bytes", conn->pending());
  const int64_t before = static_cast<int64_t>(conn->pending());
  Status out = Status::OK();
  while (conn->pending() > 0) {
    const ssize_t n =
        send(conn->fd, conn->write_buf.data() + conn->write_pos,
             conn->pending(), MSG_NOSIGNAL);
    if (n > 0) {
      metrics_->bytes_tx->Increment(static_cast<uint64_t>(n));
      conn->write_pos += static_cast<size_t>(n);
      conn->last_active_ms = NowMs();
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    out = Status::IOError(std::string("send: ") + strerror(errno));
    break;
  }
  if (conn->write_pos > 0 && conn->write_pos == conn->write_buf.size()) {
    conn->write_buf.clear();
    conn->write_pos = 0;
  }
  metrics_->write_buffer_bytes->Add(
      static_cast<int64_t>(conn->pending()) - before);
  return out;
}

void Reactor::ReapIfDead(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end() || !it->second->dead) return;
  Conn* conn = it->second.get();
  if (conn->subscribed && !draining_.load(std::memory_order_acquire)) {
    // Prune the writer's subscriber registry. Post-quiesce the op may
    // never ship (the drain contract forbids it); the registry dies with
    // the server then anyway.
    EngineOp op;
    op.type = MsgType::kUnsubscribe;
    op.reactor = index_;
    op.conn_id = conn->id;
    op.implicit = true;
    op.enqueue_ns = NowNs();
    pending_ops_.push_back(std::move(op));
  }
  obs::LogEvent(obs::LogLevel::kDebug, "net.reactor", "conn_close")
      .U64("fd", static_cast<uint64_t>(conn->fd))
      .U64("reactor", static_cast<uint64_t>(index_))
      .U64("connections", conns_.size() - 1);
  metrics_->write_buffer_bytes->Add(-static_cast<int64_t>(conn->pending()));
  metrics_->connections->Add(-1);
  close(conn->fd);  // also deregisters from the epoll set
  conns_.erase(it);
  reactor_connections_->Set(static_cast<int64_t>(conns_.size()));
}

void Reactor::SweepIdle(int64_t now_ms) {
  std::vector<uint64_t> idle;
  for (const auto& entry : conns_) {
    if (now_ms - entry.second->last_active_ms >= config_.idle_timeout_ms) {
      entry.second->dead = true;
      idle.push_back(entry.first);
    }
  }
  for (uint64_t id : idle) ReapIfDead(id);
}

}  // namespace implistat::net
