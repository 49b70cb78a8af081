#include "net/messages.h"

#include <limits>

namespace implistat::net {

std::string EncodeObserveBatchRequest(const ObserveBatchRequest& request) {
  ByteWriter out;
  out.PutU8(static_cast<uint8_t>(request.encoding));
  out.PutVarint64(request.width);
  out.PutVarint64(request.num_tuples());
  if (request.encoding == ObserveEncoding::kIds) {
    for (ValueId id : request.ids) out.PutVarint64(id);
  } else {
    for (const std::string& value : request.values) {
      out.PutLengthPrefixed(value);
    }
  }
  return out.Release();
}

std::string EncodeObserveBatchResponse(uint64_t tuples_seen) {
  ByteWriter out;
  out.PutVarint64(tuples_seen);
  return out.Release();
}

StatusOr<uint64_t> DecodeObserveBatchResponse(std::string_view body) {
  ByteReader in(body);
  uint64_t tuples_seen;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&tuples_seen));
  if (in.remaining() != 0) {
    return Status::InvalidArgument("observe_batch response: trailing bytes");
  }
  return tuples_seen;
}

std::string EncodeQueryRequest(const std::vector<uint32_t>& ids) {
  ByteWriter out;
  out.PutVarint64(ids.size());
  for (uint32_t id : ids) out.PutVarint64(id);
  return out.Release();
}

StatusOr<std::vector<uint32_t>> DecodeQueryRequest(std::string_view payload) {
  ByteReader in(payload);
  uint64_t count;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&count));
  if (count > in.remaining()) {
    return Status::InvalidArgument("query: implausible id count");
  }
  std::vector<uint32_t> ids;
  ids.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t id;
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&id));
    if (id > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("query: id overflow");
    }
    ids.push_back(static_cast<uint32_t>(id));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("query: trailing bytes");
  }
  return ids;
}

std::string EncodeQueryResponse(const QueryResponse& response) {
  ByteWriter out;
  out.PutVarint64(response.tuples_seen);
  out.PutVarint64(response.results.size());
  for (const QueryResult& result : response.results) {
    out.PutVarint64(result.id);
    out.PutLengthPrefixed(result.label);
    out.PutLengthPrefixed(result.estimator_name);
    out.PutDouble(result.estimate);
    out.PutDouble(result.std_error);
    out.PutVarint64(result.memory_bytes);
    out.PutU8(result.derived ? 1 : 0);
    out.PutDouble(result.lower);
    out.PutDouble(result.upper);
  }
  out.PutVarint64(response.warnings.size());
  for (const std::string& warning : response.warnings) {
    out.PutLengthPrefixed(warning);
  }
  return out.Release();
}

StatusOr<QueryResponse> DecodeQueryResponse(std::string_view body) {
  ByteReader in(body);
  QueryResponse response;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&response.tuples_seen));
  uint64_t count;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&count));
  if (count > in.remaining()) {
    return Status::InvalidArgument("query response: implausible result count");
  }
  response.results.reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    QueryResult result;
    uint64_t id;
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&id));
    if (id > std::numeric_limits<uint32_t>::max()) {
      return Status::InvalidArgument("query response: id overflow");
    }
    result.id = static_cast<uint32_t>(id);
    std::string_view label;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&label));
    result.label = std::string(label);
    std::string_view name;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&name));
    result.estimator_name = std::string(name);
    IMPLISTAT_RETURN_NOT_OK(in.ReadDouble(&result.estimate));
    IMPLISTAT_RETURN_NOT_OK(in.ReadDouble(&result.std_error));
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&result.memory_bytes));
    uint8_t derived;
    IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&derived));
    if (derived > 1) {
      return Status::InvalidArgument("query response: bad derived flag");
    }
    result.derived = derived != 0;
    IMPLISTAT_RETURN_NOT_OK(in.ReadDouble(&result.lower));
    IMPLISTAT_RETURN_NOT_OK(in.ReadDouble(&result.upper));
    response.results.push_back(std::move(result));
  }
  uint64_t warning_count;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&warning_count));
  if (warning_count > in.remaining()) {
    return Status::InvalidArgument(
        "query response: implausible warning count");
  }
  response.warnings.reserve(static_cast<size_t>(warning_count));
  for (uint64_t i = 0; i < warning_count; ++i) {
    std::string_view warning;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&warning));
    response.warnings.emplace_back(warning);
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("query response: trailing bytes");
  }
  return response;
}

std::string EncodeSnapshotRequest(uint32_t query_id) {
  ByteWriter out;
  out.PutVarint64(query_id);
  return out.Release();
}

StatusOr<uint32_t> DecodeSnapshotRequest(std::string_view payload) {
  ByteReader in(payload);
  uint64_t id;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&id));
  if (id > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("snapshot: id overflow");
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("snapshot: trailing bytes");
  }
  return static_cast<uint32_t>(id);
}

std::string EncodeSnapshotResponse(uint64_t epoch, std::string_view state) {
  ByteWriter out;
  out.PutVarint64(epoch);
  out.PutBytes(state);
  return out.Release();
}

StatusOr<SnapshotResponse> DecodeSnapshotResponse(std::string_view body) {
  ByteReader in(body);
  SnapshotResponse response;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&response.epoch));
  std::string_view state;
  IMPLISTAT_RETURN_NOT_OK(in.ReadBytes(in.remaining(), &state));
  response.state = std::string(state);
  return response;
}

std::string EncodeDeltaSnapshotRequest(const DeltaSnapshotRequest& request) {
  ByteWriter out;
  out.PutVarint64(request.query_id);
  out.PutVarint64(request.since_epoch);
  out.PutU8(request.capabilities);
  return out.Release();
}

StatusOr<DeltaSnapshotRequest> DecodeDeltaSnapshotRequest(
    std::string_view payload) {
  ByteReader in(payload);
  DeltaSnapshotRequest request;
  uint64_t id;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&id));
  if (id > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("snapshot_delta: id overflow");
  }
  request.query_id = static_cast<uint32_t>(id);
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&request.since_epoch));
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&request.capabilities));
  if (in.remaining() != 0) {
    return Status::InvalidArgument("snapshot_delta: trailing bytes");
  }
  return request;
}

std::string EncodeDeltaSnapshotResponse(
    const DeltaSnapshotResponse& response) {
  ByteWriter out;
  out.PutU8(response.is_delta ? 1 : 0);
  out.PutVarint64(response.epoch);
  out.PutBytes(response.state);
  return out.Release();
}

StatusOr<DeltaSnapshotResponse> DecodeDeltaSnapshotResponse(
    std::string_view body) {
  ByteReader in(body);
  DeltaSnapshotResponse response;
  uint8_t mode;
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&mode));
  if (mode > 1) {
    return Status::InvalidArgument("snapshot_delta: bad mode byte");
  }
  response.is_delta = mode == 1;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&response.epoch));
  std::string_view state;
  IMPLISTAT_RETURN_NOT_OK(in.ReadBytes(in.remaining(), &state));
  response.state = std::string(state);
  return response;
}

std::string EncodeMergeRequest(uint32_t query_id, std::string_view snapshot) {
  ByteWriter out;
  out.PutVarint64(query_id);
  out.PutBytes(snapshot);
  return out.Release();
}

StatusOr<std::pair<uint32_t, std::string_view>> DecodeMergeRequest(
    std::string_view payload) {
  ByteReader in(payload);
  uint64_t id;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&id));
  if (id > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("merge: id overflow");
  }
  std::string_view snapshot;
  IMPLISTAT_RETURN_NOT_OK(in.ReadBytes(in.remaining(), &snapshot));
  return std::make_pair(static_cast<uint32_t>(id), snapshot);
}

std::string EncodeCheckpointResponse(std::string_view path) {
  ByteWriter out;
  out.PutLengthPrefixed(path);
  return out.Release();
}

StatusOr<std::string> DecodeCheckpointResponse(std::string_view body) {
  ByteReader in(body);
  std::string_view path;
  IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&path));
  if (in.remaining() != 0) {
    return Status::InvalidArgument("checkpoint response: trailing bytes");
  }
  return std::string(path);
}

namespace {

Status DecodeStringList(ByteReader* in, std::string_view what,
                        std::vector<std::string>* out) {
  uint64_t count;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&count));
  if (count > in->remaining()) {
    return Status::InvalidArgument("subscribe: implausible " +
                                   std::string(what) + " count");
  }
  out->reserve(static_cast<size_t>(count));
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view item;
    IMPLISTAT_RETURN_NOT_OK(in->ReadLengthPrefixed(&item));
    out->emplace_back(item);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeSubscribeRequest(const SubscribeRequest& request) {
  ByteWriter out;
  out.PutVarint64(request.statements.size());
  for (const std::string& statement : request.statements) {
    out.PutLengthPrefixed(statement);
  }
  out.PutVarint64(request.triggers.size());
  for (const std::string& trigger : request.triggers) {
    out.PutLengthPrefixed(trigger);
  }
  return out.Release();
}

StatusOr<SubscribeRequest> DecodeSubscribeRequest(std::string_view payload) {
  ByteReader in(payload);
  SubscribeRequest request;
  IMPLISTAT_RETURN_NOT_OK(
      DecodeStringList(&in, "statement", &request.statements));
  IMPLISTAT_RETURN_NOT_OK(DecodeStringList(&in, "trigger", &request.triggers));
  if (in.remaining() != 0) {
    return Status::InvalidArgument("subscribe: trailing bytes");
  }
  return request;
}

std::string EncodeSubscribeResponse(const SubscribeResponse& response) {
  ByteWriter out;
  out.PutVarint64(response.installed);
  out.PutVarint64(response.matched);
  return out.Release();
}

StatusOr<SubscribeResponse> DecodeSubscribeResponse(std::string_view body) {
  ByteReader in(body);
  SubscribeResponse response;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&response.installed));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&response.matched));
  if (in.remaining() != 0) {
    return Status::InvalidArgument("subscribe response: trailing bytes");
  }
  return response;
}

std::string EncodeTriggerFired(const TriggerFired& fired) {
  ByteWriter out;
  out.PutLengthPrefixed(fired.trigger);
  out.PutVarint64(fired.epoch);
  out.PutDouble(fired.value);
  return out.Release();
}

StatusOr<TriggerFired> DecodeTriggerFired(std::string_view payload) {
  ByteReader in(payload);
  TriggerFired fired;
  std::string_view trigger;
  IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&trigger));
  if (trigger.empty()) {
    return Status::InvalidArgument("trigger_fired: empty trigger name");
  }
  fired.trigger = std::string(trigger);
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&fired.epoch));
  IMPLISTAT_RETURN_NOT_OK(in.ReadDouble(&fired.value));
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trigger_fired: trailing bytes");
  }
  return fired;
}

}  // namespace implistat::net
