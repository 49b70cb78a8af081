#include "net/server.h"

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
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "delta/delta.h"
#include "net/messages.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "stream/tuple_stream.h"

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

Status SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Status::IOError(std::string("fcntl: ") + strerror(errno));
  }
  return Status::OK();
}

}  // namespace

/// The single-writer check: every engine apply verifies it runs on the
/// thread that entered this instance's Run(). Always on (one thread-id
/// compare per op, not per tuple) — a violation means estimator state
/// is being mutated concurrently, which corrupts silently; aborting
/// loudly is strictly better.
void Server::CheckWriterThread() const {
  if (std::this_thread::get_id() != writer_thread_) {
    std::fprintf(stderr,
                 "implistat fatal: engine op applied off the writer thread "
                 "(single-writer invariant violated)\n");
    std::abort();
  }
}

Server::Server(QueryEngine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

Server::~Server() {
  reactors_.clear();  // joins threads, closes owned connections
  if (listen_fd_ >= 0) close(listen_fd_);
  if (wake_fds_[0] >= 0) close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) close(wake_fds_[1]);
}

Status Server::Start() {
  metrics_ = &NetMetrics::Get();
  trigger_pushes_ = obs::MetricsRegistry::Global().GetCounter(
      "implistat_trigger_pushes_total",
      "TRIGGER_FIRED frames fanned out to subscribed connections");
  if (pipe(wake_fds_) != 0) {
    return Status::IOError(std::string("pipe: ") + strerror(errno));
  }
  IMPLISTAT_RETURN_NOT_OK(SetNonBlocking(wake_fds_[0]));
  IMPLISTAT_RETURN_NOT_OK(SetNonBlocking(wake_fds_[1]));

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + strerror(errno));
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
           sizeof(addr)) != 0) {
    return Status::IOError(std::string("bind: ") + strerror(errno));
  }
  if (listen(listen_fd_, options_.listen_backlog) != 0) {
    return Status::IOError(std::string("listen: ") + strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (getsockname(listen_fd_, reinterpret_cast<struct sockaddr*>(&addr),
                  &len) != 0) {
    return Status::IOError(std::string("getsockname: ") + strerror(errno));
  }
  port_ = ntohs(addr.sin_port);
  IMPLISTAT_RETURN_NOT_OK(SetNonBlocking(listen_fd_));

  ReactorConfig config;
  config.max_frame_bytes = options_.max_frame_bytes;
  config.max_write_buffer_bytes = options_.max_write_buffer_bytes;
  config.max_pipeline_depth = std::max<size_t>(options_.max_pipeline_depth,
                                               1);
  config.idle_timeout_ms = options_.idle_timeout_ms;
  config.schema = &engine_->schema();
  config.dicts = &engine_->dictionaries();
  const int n = std::max(options_.reactors, 1);
  for (int i = 0; i < n; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(this, i, config));
    IMPLISTAT_RETURN_NOT_OK(reactors_.back()->Init());
  }
  return Status::OK();
}

void Server::Shutdown() {
  // Async-signal-safe: an atomic store plus a single write to the
  // self-pipe. A full pipe means a wakeup is already pending, which is
  // just as good.
  stop_flag_.store(true, std::memory_order_release);
  char byte = 1;
  [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
}

void Server::InjectTask(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks_.push_back(std::move(task));
  }
  char byte = 1;
  [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
}

void Server::RunInjectedTasks() {
  std::vector<std::function<void()>> tasks;
  {
    std::lock_guard<std::mutex> lock(task_mu_);
    tasks.swap(tasks_);
  }
  if (tasks.empty()) return;
  for (auto& task : tasks) task();
  // An aggregator's injected folds advance the engine exactly like
  // OBSERVE_BATCH ops, so its fold-level triggers forward here.
  DispatchTriggerFirings();
}

void Server::EnqueueOps(std::vector<EngineOp> ops) {
  size_t depth;
  {
    std::lock_guard<std::mutex> lock(op_mu_);
    if (ops_.empty()) {
      ops_ = std::move(ops);
    } else {
      for (auto& op : ops) ops_.push_back(std::move(op));
    }
    depth = ops_.size();
  }
  metrics_->writer_queue_depth->Set(static_cast<int64_t>(depth));
  char byte = 1;
  [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
}

void Server::NotifyQuiesced() {
  quiesced_.fetch_add(1, std::memory_order_acq_rel);
  char byte = 1;
  [[maybe_unused]] ssize_t n = write(wake_fds_[1], &byte, 1);
}

void Server::AcceptPending() {
  for (;;) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      // EAGAIN: backlog drained. Anything else: transient; retry on the
      // next round rather than killing the server.
      return;
    }
    if (!SetNonBlocking(fd).ok()) {
      close(fd);
      continue;
    }
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    reactors_[next_reactor_]->AddConnection(fd);
    next_reactor_ = (next_reactor_ + 1) % reactors_.size();
  }
}

void Server::ProcessOps() {
  std::vector<EngineOp> ops;
  {
    std::lock_guard<std::mutex> lock(op_mu_);
    ops.swap(ops_);
  }
  if (ops.empty()) return;
  metrics_->writer_queue_depth->Set(0);
  // One completion batch per reactor: the owning reactor gets a single
  // wakeup for everything this round produced for it.
  std::vector<std::vector<Completion>> done(reactors_.size());
  for (EngineOp& op : ops) {
    const size_t r = static_cast<size_t>(op.reactor);
    done[r].push_back(ApplyOp(op));
  }
  for (size_t r = 0; r < done.size(); ++r) {
    if (!done[r].empty()) reactors_[r]->PostCompletions(std::move(done[r]));
  }
  // Epoch boundaries crossed by this round's observes/merges may have
  // fired triggers; push them in the same round their responses go out.
  DispatchTriggerFirings();
}

Completion Server::ApplyOp(EngineOp& op) {
  CheckWriterThread();
  Completion done;
  done.conn_id = op.conn_id;
  done.seq = op.seq;
  // The handoff span stitches the reactor's handle span to the writer's
  // apply in trace dumps, and prices the queue wait.
  obs::ScopedSpan handoff("server.reactor_handoff", "server", op.trace);
  handoff.SetDetail(MsgTypeName(op.type));
  handoff.Annotate("reactor", static_cast<uint64_t>(op.reactor));
  handoff.Annotate("queue_ns", NowNs() - op.enqueue_ns);
  switch (op.type) {
    case MsgType::kObserveBatch:
      ApplyObserveBatch(op, &done);
      break;
    case MsgType::kQuery:
      ApplyQuery(op, &done);
      break;
    case MsgType::kSnapshot:
      ApplySnapshot(op, &done);
      break;
    case MsgType::kSnapshotDelta:
      ApplySnapshotDelta(op, &done);
      break;
    case MsgType::kMerge:
      ApplyMerge(op, &done);
      break;
    case MsgType::kCheckpoint:
      ApplyCheckpoint(&done);
      break;
    case MsgType::kSubscribe:
      ApplySubscribe(op, &done);
      break;
    case MsgType::kUnsubscribe:
      ApplyUnsubscribe(op, &done);
      break;
    case MsgType::kShutdown:
      obs::LogEvent(obs::LogLevel::kInfo, "net.server", "shutdown_request")
          .U64("reactor", static_cast<uint64_t>(op.reactor));
      done.status = Status::OK();
      done.close_conn = true;
      shutdown_requested_ = true;
      break;
    default:
      // Reactors only post the types above.
      done.status = Status::Internal("unroutable engine op");
      break;
  }
  return done;
}

void Server::ApplyObserveBatch(EngineOp& op, Completion* done) {
  // The reactor already validated every id against the schema, so this
  // is pure apply: no decode, no allocation beyond the stream wrapper.
  VectorStream stream(engine_->schema(), std::move(op.flat));
  Status status = [&] {
    obs::ScopedSpan apply("server.apply", "server");
    apply.Annotate("tuples", stream.num_tuples());
    return engine_->ObserveStream(stream);
  }();
  if (!status.ok()) {
    done->status = std::move(status);
    return;
  }
  done->body = EncodeObserveBatchResponse(engine_->tuples_seen());
}

void Server::ApplyQuery(EngineOp& op, Completion* done) {
  std::vector<uint32_t>& ids = op.query_ids;
  if (ids.empty()) {
    for (QueryId id : engine_->ActiveQueryIds()) {
      ids.push_back(static_cast<uint32_t>(id));
    }
  }
  QueryResponse response;
  response.tuples_seen = engine_->tuples_seen();
  {
    obs::ScopedSpan apply("server.apply", "server");
    apply.Annotate("queries", ids.size());
    for (uint32_t id : ids) {
      StatusOr<QueryAnswer> answer =
          engine_->AnswerEx(static_cast<QueryId>(id));
      if (!answer.ok()) {
        done->status = answer.status();
        return;
      }
      const ImplicationEstimator* est =
          engine_->Estimator(static_cast<QueryId>(id)).value();
      const ImplicationQuerySpec* spec =
          engine_->Spec(static_cast<QueryId>(id)).value();
      QueryResult result;
      result.id = id;
      result.label = spec->label;
      result.estimator_name = est->name();
      result.estimate = answer->estimate;
      result.std_error = answer->std_error;
      result.memory_bytes = est->MemoryBytes();
      result.derived = answer->derived;
      result.lower = answer->lower;
      result.upper = answer->upper;
      response.results.push_back(std::move(result));
    }
  }
  if (options_.query_warnings) {
    response.warnings = options_.query_warnings();
  }
  done->body = EncodeQueryResponse(response);
}

void Server::ApplySnapshot(EngineOp& op, Completion* done) {
  StatusOr<const ImplicationEstimator*> est =
      engine_->Estimator(static_cast<QueryId>(op.query_id));
  if (!est.ok()) {
    done->status = est.status();
    return;
  }
  StatusOr<std::string> snapshot = [&] {
    obs::ScopedSpan apply("server.apply", "server");
    return (*est)->SerializeState();
  }();
  if (!snapshot.ok()) {
    done->status = snapshot.status();
    return;
  }
  // The epoch stamps how much stream this state covers; an aggregator
  // skips refolding a peer whose epoch (and therefore state) is
  // unchanged, and spots an edge that restarted from a checkpoint.
  done->body = EncodeSnapshotResponse(engine_->tuples_seen(), *snapshot);
}

void Server::ApplySnapshotDelta(EngineOp& op, Completion* done) {
  StatusOr<const ImplicationEstimator*> est =
      engine_->Estimator(static_cast<QueryId>(op.query_id));
  if (!est.ok()) {
    done->status = est.status();
    return;
  }
  obs::ScopedSpan apply("server.apply", "server");
  const uint64_t epoch = engine_->tuples_seen();
  DeltaSnapshotResponse response;
  response.epoch = epoch;
  // since_epoch 0 is an explicit bootstrap; a non-zero epoch the
  // estimator no longer has a baseline for (restart, merge, evicted
  // mark, or an epoch from the future after a server restart) comes
  // back NotFound and resyncs the same way. Estimator kinds without
  // delta support answer Unimplemented and always take the full path.
  if (op.since_epoch != 0) {
    StatusOr<std::string> fragment =
        (*est)->SerializeDelta(op.since_epoch, epoch);
    if (fragment.ok()) {
      response.is_delta = true;
      response.state =
          WrapDeltaSnapshot(op.since_epoch, epoch, *fragment,
                            (op.capabilities & kDeltaCapRle) != 0);
    } else if (fragment.status().code() != StatusCode::kNotFound &&
               fragment.status().code() != StatusCode::kUnimplemented) {
      done->status = fragment.status();
      return;
    }
  }
  if (!response.is_delta) {
    StatusOr<std::string> snapshot = (*est)->SerializeState();
    if (!snapshot.ok()) {
      done->status = snapshot.status();
      return;
    }
    (*est)->NoteSnapshotEpoch(epoch);
    response.state = *std::move(snapshot);
  }
  apply.Annotate("delta", response.is_delta ? 1u : 0u);
  apply.Annotate("state_bytes", response.state.size());
  done->body = EncodeDeltaSnapshotResponse(response);
}

void Server::ApplyMerge(EngineOp& op, Completion* done) {
  done->status = [&] {
    obs::ScopedSpan apply("server.apply", "server");
    apply.Annotate("state_bytes", op.snapshot.size());
    return engine_->MergeEstimatorState(static_cast<QueryId>(op.query_id),
                                        op.snapshot);
  }();
}

void Server::ApplyCheckpoint(Completion* done) {
  if (options_.checkpoint_path.empty()) {
    done->status = Status::FailedPrecondition(
        "server started without a checkpoint path");
    return;
  }
  Status status = [&] {
    obs::ScopedSpan apply("server.apply", "server");
    return engine_->Checkpoint(options_.checkpoint_path);
  }();
  if (!status.ok()) {
    obs::LogEvent(obs::LogLevel::kError, "net.server", "checkpoint_failed")
        .Str("path", options_.checkpoint_path)
        .Str("error", status.ToString());
    done->status = std::move(status);
    return;
  }
  obs::LogEvent(obs::LogLevel::kInfo, "net.server", "checkpoint_written")
      .Str("path", options_.checkpoint_path)
      .U64("tuples_seen", engine_->tuples_seen());
  done->body = EncodeCheckpointResponse(options_.checkpoint_path);
}

void Server::ApplySubscribe(EngineOp& op, Completion* done) {
  obs::ScopedSpan apply("server.apply", "server");
  apply.Annotate("statements", op.statements.size());
  uint64_t installed = 0;
  for (const std::string& statement : op.statements) {
    StatusOr<std::string> name = engine_->InstallTrigger(statement);
    if (!name.ok()) {
      // Nothing subscribed; statements installed before the bad one stay
      // armed (installation is not transactional — the error names the
      // offending statement via the caret diagnostic).
      done->status = name.status();
      return;
    }
    obs::LogEvent(obs::LogLevel::kInfo, "net.server", "trigger_installed")
        .Str("trigger", *name)
        .U64("reactor", static_cast<uint64_t>(op.reactor));
    ++installed;
  }
  // Re-subscribing replaces this connection's previous filter.
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    if (it->reactor == op.reactor && it->conn_id == op.conn_id) {
      it = subscribers_.erase(it);
    } else {
      ++it;
    }
  }
  Subscriber sub;
  sub.reactor = op.reactor;
  sub.conn_id = op.conn_id;
  sub.names = std::move(op.trigger_names);
  uint64_t matched = 0;
  if (engine_->triggers() != nullptr) {
    for (const cql::TriggerInfo& info : engine_->triggers()->List()) {
      if (sub.Matches(info.name)) ++matched;
    }
  }
  subscribers_.push_back(std::move(sub));
  SubscribeResponse response;
  response.installed = installed;
  response.matched = matched;
  done->body = EncodeSubscribeResponse(response);
}

void Server::ApplyUnsubscribe(EngineOp& op, Completion* done) {
  for (auto it = subscribers_.begin(); it != subscribers_.end();) {
    if (it->reactor == op.reactor && it->conn_id == op.conn_id) {
      it = subscribers_.erase(it);
    } else {
      ++it;
    }
  }
  done->status = Status::OK();  // idempotent; implicit prunes land here too
}

void Server::DispatchTriggerFirings() {
  if (!engine_->has_pending_trigger_firings()) return;
  // Always drain — firings must not accumulate while nobody listens.
  std::vector<cql::TriggerFiring> firings = engine_->TakeTriggerFirings();
  if (firings.empty() || subscribers_.empty()) return;
  obs::ScopedSpan span("trigger.deliver", "server");
  span.Annotate("firings", firings.size());
  std::vector<std::vector<TriggerPush>> pushes(reactors_.size());
  uint64_t delivered = 0;
  for (const cql::TriggerFiring& firing : firings) {
    TriggerFired fired;
    fired.trigger = firing.trigger;
    fired.epoch = firing.epoch;
    fired.value = firing.value;
    // One frame per firing, shared by every matching subscriber; the
    // delivery span context rides the frame's extension block.
    std::string frame;
    for (const Subscriber& sub : subscribers_) {
      if (!sub.Matches(firing.trigger)) continue;
      if (frame.empty()) {
        frame = EncodePushFrame(MsgType::kTriggerFired,
                                EncodeTriggerFired(fired), span.context());
      }
      pushes[static_cast<size_t>(sub.reactor)].push_back(
          TriggerPush{sub.conn_id, frame});
      ++delivered;
    }
  }
  span.Annotate("pushes", delivered);
  if (trigger_pushes_ != nullptr) trigger_pushes_->Increment(delivered);
  for (size_t r = 0; r < pushes.size(); ++r) {
    if (!pushes[r].empty()) reactors_[r]->PostPushes(std::move(pushes[r]));
  }
}

Status Server::Run() {
  if (listen_fd_ < 0) {
    return Status::FailedPrecondition("Run() before Start()");
  }
  writer_thread_ = std::this_thread::get_id();
  for (auto& reactor : reactors_) reactor->Start();

  struct pollfd fds[2];
  while (!shutdown_requested_) {
    fds[0] = {listen_fd_, POLLIN, 0};
    fds[1] = {wake_fds_[0], POLLIN, 0};
    const int ready = poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      const Status status =
          Status::IOError(std::string("poll: ") + strerror(errno));
      (void)DrainAndClose();
      return status;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      char drain[64];
      while (read(wake_fds_[0], drain, sizeof(drain)) > 0) {
      }
    }
    // The self-pipe wakes the loop for reactor ops, injected tasks, and
    // Shutdown; all three are cheap to check unconditionally.
    ProcessOps();
    RunInjectedTasks();
    if (stop_flag_.load(std::memory_order_acquire)) {
      shutdown_requested_ = true;
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) AcceptPending();
  }
  return DrainAndClose();
}

Status Server::DrainAndClose() {
  // 1. Stop accepting.
  close(listen_fd_);
  listen_fd_ = -1;

  // 2. Quiesce the reactors: each stops reading, then acks; ops already
  //    in flight keep arriving until the last ack, so keep applying.
  for (auto& reactor : reactors_) reactor->BeginDrain();
  const int64_t quiesce_deadline = NowMs() + 2000;
  while (quiesced_.load(std::memory_order_acquire) <
             static_cast<int>(reactors_.size()) &&
         NowMs() < quiesce_deadline) {
    struct pollfd p = {wake_fds_[0], POLLIN, 0};
    const int ready = poll(
        &p, 1,
        static_cast<int>(std::max<int64_t>(quiesce_deadline - NowMs(), 1)));
    if (ready < 0 && errno != EINTR) break;
    char drain[64];
    while (read(wake_fds_[0], drain, sizeof(drain)) > 0) {
    }
    ProcessOps();
  }
  // After the last ack the queue can no longer grow; one final sweep
  // posts the last completions.
  ProcessOps();

  // 3. Let the reactors flush pending responses (bounded: a stuck peer
  //    gets a short grace window, not a hung server), then exit.
  const int64_t exit_deadline = NowMs() + 2000;
  for (auto& reactor : reactors_) reactor->RequestExit(exit_deadline);
  for (auto& reactor : reactors_) reactor->Join();

  // Folds injected while the loop was draining still land before the
  // final checkpoint.
  RunInjectedTasks();

  if (!options_.checkpoint_path.empty()) {
    // The drain checkpoint: SIGTERM (or a SHUTDOWN request) leaves a
    // restorable engine state behind.
    Status status = engine_->Checkpoint(options_.checkpoint_path);
    if (!status.ok()) {
      obs::LogEvent(obs::LogLevel::kError, "net.server", "checkpoint_failed")
          .Str("path", options_.checkpoint_path)
          .Str("error", status.ToString());
      return status;
    }
    obs::LogEvent(obs::LogLevel::kInfo, "net.server", "checkpoint_written")
        .Str("path", options_.checkpoint_path)
        .U64("tuples_seen", engine_->tuples_seen())
        .Bool("drain", true);
  }
  return Status::OK();
}

}  // namespace implistat::net
