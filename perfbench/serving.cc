#include <algorithm>
#include <chrono>
#include <future>
#include <iterator>
#include <thread>

#include "bench.h"
#include "net/messages.h"
#include "net/wire.h"

namespace perfbench {

std::vector<is::ValueId> StreamPool::Batch(size_t i) const {
  const size_t cells = kBatchTuples * width;
  const auto begin = flat.begin() + static_cast<std::ptrdiff_t>(i * cells);
  return std::vector<is::ValueId>(begin,
                                  begin + static_cast<std::ptrdiff_t>(cells));
}

std::string StreamPool::Payload(size_t i) const {
  is::net::ObserveBatchRequest request;
  request.encoding = is::net::ObserveEncoding::kIds;
  request.width = static_cast<uint32_t>(width);
  request.ids = Batch(i);
  return is::net::EncodeObserveBatchRequest(request);
}

StreamPool MakePool(is::TupleStream& gen, size_t batches, bool frames) {
  StreamPool pool;
  pool.schema = gen.schema();
  pool.width = static_cast<size_t>(pool.schema.num_attributes());
  pool.batches = batches;
  const size_t tuples = batches * kBatchTuples;
  pool.flat.reserve(tuples * pool.width);
  for (size_t i = 0; i < tuples; ++i) {
    std::optional<is::TupleRef> row = gen.Next();
    for (size_t c = 0; c < pool.width; ++c) pool.flat.push_back((*row)[c]);
  }
  if (!frames) return pool;
  pool.frames.reserve(batches);
  for (size_t b = 0; b < batches; ++b) {
    pool.frames.push_back(is::net::EncodeRequestFrame(
        is::net::MsgType::kObserveBatch, pool.Payload(b)));
  }
  return pool;
}

Edge::Edge(const is::Schema& schema)
    : engine_(schema),
      server_(std::make_unique<is::net::Server>(&engine_,
                                                is::net::ServerOptions())) {}

Edge::~Edge() { Stop(); }

is::Status Edge::Start() {
  const std::vector<int> before = ProcessThreads();
  IMPLISTAT_RETURN_NOT_OK(server_->Start());
  loop_ = std::thread([this] {
    writer_tid_.store(CurrentTid());
    (void)server_->Run();
  });
  running_ = true;
  // Run() spawns the reactor on entry; wait until both threads exist so
  // the CPU ledger can name them.
  const uint64_t deadline = NowNs() + 5000000000ull;
  while (NowNs() < deadline) {
    const int writer = writer_tid_.load();
    std::vector<int> fresh;
    for (int tid : ProcessThreads()) {
      if (!std::binary_search(before.begin(), before.end(), tid) &&
          tid != writer) {
        fresh.push_back(tid);
      }
    }
    if (writer != 0 && fresh.size() == 1) {
      reactor_tid_ = fresh[0];
      return is::Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return is::Status::Internal("edge server threads did not start");
}

void Edge::Stop() {
  if (!running_) return;
  server_->Shutdown();
  loop_.join();
  running_ = false;
}

void Edge::RunOnWriter(const std::function<void()>& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  server_->InjectTask([&fn, &done] {
    fn();
    done.set_value();
  });
  finished.wait();
}

bool ProbeOnce(is::net::Client& client, uint32_t id, std::vector<Probe>* out) {
  const uint64_t start = NowNs();
  is::StatusOr<is::net::QueryResponse> response = client.Query({id});
  const uint64_t stop = NowNs();
  if (!response.ok() || response->results.size() != 1) return false;
  const is::net::QueryResult& result = response->results[0];
  Probe probe;
  probe.id = id;
  probe.tuples_seen = response->tuples_seen;
  probe.estimate = result.estimate;
  probe.std_error = result.std_error;
  probe.lower = result.lower;
  probe.upper = result.upper;
  probe.derived = result.derived;
  probe.sent_ns = start;
  probe.rtt_us = static_cast<double>(stop - start) / 1e3;
  out->push_back(probe);
  return true;
}

Uplink::Uplink(is::QueryEngine* aggregate,
               std::vector<is::cluster::PeerConfig> peers,
               is::net::Server* fold_host) {
  is::cluster::SupervisorOptions options;
  options.poll_interval_ms = 1000;
  options.rpc_deadline_ms = 30000;
  options.connect_timeout_ms = 5000;
  is::cluster::TaskRunner runner;
  if (fold_host != nullptr) {
    runner = [this, fold_host](std::function<void()> task) {
      const uint64_t start = NowNs();
      std::promise<void> done;
      std::future<void> finished = done.get_future();
      fold_host->InjectTask([&task, &done] {
        task();
        done.set_value();
      });
      finished.wait();
      fold_ns_ += NowNs() - start;
    };
  } else {
    runner = [this](std::function<void()> task) {
      const uint64_t start = NowNs();
      task();
      fold_ns_ += NowNs() - start;
    };
  }
  supervisor_ = std::make_unique<is::cluster::AggregatorSupervisor>(
      aggregate, std::move(peers), options, std::move(runner));
  auto& registry = is::obs::MetricsRegistry::Global();
  delta_bytes_ = registry.GetCounter("implistat_delta_bytes_total");
  snapshot_bytes_ = registry.GetCounter("implistat_snapshot_bytes_total");
}

Uplink::Round Uplink::Poll() {
  clock_ms_ += 1000;
  const uint64_t bytes_before = delta_bytes_->Value() + snapshot_bytes_->Value();
  fold_ns_ = 0;
  const uint64_t start = NowNs();
  Round round;
  round.stats = supervisor_->PollOnce(clock_ms_);
  round.poll_ms = static_cast<double>(NowNs() - start) / 1e6;
  round.fold_ms = static_cast<double>(fold_ns_) / 1e6;
  round.wire_bytes =
      delta_bytes_->Value() + snapshot_bytes_->Value() - bytes_before;
  return round;
}

void SpanCollector::Dump() {
  std::vector<is::obs::SpanRecord> snapshot = is::obs::Tracer::Snapshot();
  std::vector<uint64_t> fresh;
  for (const is::obs::SpanRecord& span : snapshot) {
    if (std::binary_search(seen_.begin(), seen_.end(), span.span_id)) continue;
    spans_.push_back(span);
    fresh.push_back(span.span_id);
  }
  std::sort(fresh.begin(), fresh.end());
  std::vector<uint64_t> merged;
  merged.reserve(seen_.size() + fresh.size());
  std::merge(seen_.begin(), seen_.end(), fresh.begin(), fresh.end(),
             std::back_inserter(merged));
  seen_ = std::move(merged);
}

is::StatusOr<std::unique_ptr<is::QueryEngine>> RefoldFromFullPulls(
    const is::Schema& schema, const Registrar& registrar,
    const std::vector<uint16_t>& ports) {
  auto engine = std::make_unique<is::QueryEngine>(schema);
  QuerySet queries;
  IMPLISTAT_RETURN_NOT_OK(registrar(*engine, false, &queries));
  const std::vector<is::QueryEngine::FoldUnit> units = engine->FoldUnits();
  std::vector<std::vector<std::string>> states(units.size());
  for (uint16_t port : ports) {
    IMPLISTAT_ASSIGN_OR_RETURN(is::net::Client client,
                               is::net::Client::Connect("127.0.0.1", port));
    for (size_t u = 0; u < units.size(); ++u) {
      IMPLISTAT_ASSIGN_OR_RETURN(
          is::net::SnapshotResponse full,
          client.Snapshot(static_cast<uint32_t>(units[u].representative)));
      states[u].push_back(std::move(full.state));
    }
  }
  for (size_t u = 0; u < units.size(); ++u) {
    std::vector<std::string_view> views(states[u].begin(), states[u].end());
    IMPLISTAT_RETURN_NOT_OK(
        engine->RefoldSynopsisState(units[u].synopsis, views));
  }
  return engine;
}

void CompareFoldUnits(const is::QueryEngine& expected,
                      const is::QueryEngine& actual, const char* what) {
  for (const is::QueryEngine::FoldUnit& unit : expected.FoldUnits()) {
    auto want = expected.Estimator(unit.representative);
    auto got = actual.Estimator(unit.representative);
    if (!want.ok() || !got.ok()) {
      VerifyFail(std::string(what) + ": fold unit missing");
      return;
    }
    auto want_state = (*want)->SerializeState();
    auto got_state = (*got)->SerializeState();
    if (!want_state.ok() || !got_state.ok() || *want_state != *got_state) {
      VerifyFail(std::string(what) + ": fold unit " +
                 std::to_string(unit.representative) + " differs");
      return;
    }
  }
}

uint64_t ApplyBatch(is::QueryEngine& engine, const is::Schema& schema,
                    std::vector<is::ValueId> ids) {
  is::VectorStream stream(schema, std::move(ids));
  const uint64_t start = NowNs();
  const is::Status status = engine.ObserveStream(stream);
  const uint64_t elapsed = NowNs() - start;
  if (!status.ok()) VerifyFail("in-process ObserveStream: " + status.ToString());
  return elapsed;
}

}  // namespace perfbench
