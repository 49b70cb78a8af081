// Per-layer timings taken from outside the library: each public function
// a layer exposes is timed in-process on the workload's own batches and
// on the twin engine's synopses, and the serving spans of the traced
// phase are split into writer handoff wait, apply and encode.

#include <cstring>
#include <map>
#include <memory>
#include <thread>

#include "core/nips_ci_ensemble.h"
#include "delta/delta.h"
#include "hash/hash_family.h"
#include "net/batch_decode.h"
#include "net/messages.h"
#include "net/wire.h"
#include "obs/instrumented_estimator.h"
#include "sketch/fm_sketch.h"
#include "stream/itemset.h"
#include "workloads.h"

namespace perfbench {
namespace {

using is::QueryEngine;

/// Batches the direct timings run over.
constexpr size_t kSampleBatches = 32;

/// Results of timed loops land here so the loops cannot be elided.
volatile uint64_t g_sink = 0;

double NsPer(uint64_t ns, uint64_t count) {
  return static_cast<double>(ns) / static_cast<double>(count == 0 ? 1 : count);
}

uint64_t Annotation(const is::obs::SpanRecord& span, const char* key) {
  for (const auto& annotation : span.annotations) {
    if (annotation.key != nullptr && std::strcmp(annotation.key, key) == 0) {
      return annotation.value;
    }
  }
  return 0;
}

bool HasAnnotation(const is::obs::SpanRecord& span, const char* key) {
  for (const auto& annotation : span.annotations) {
    if (annotation.key != nullptr && std::strcmp(annotation.key, key) == 0) {
      return true;
    }
  }
  return false;
}

is::AttributeSet Attributes(const is::Schema& schema,
                            const std::vector<std::string>& names) {
  std::vector<int> indices;
  for (const std::string& name : names) indices.push_back(*schema.IndexOf(name));
  return is::AttributeSet(indices);
}

const is::ImplicationEstimator* UnitEstimator(
    const QueryEngine& engine, const QueryEngine::FoldUnit& unit) {
  return engine.Estimator(unit.representative).value();
}

/// Frame envelope + CRC32C and batch decode on the workload's payloads.
void NetTimings(const StreamPool& pool, Report* out) {
  const size_t batches = std::min(kSampleBatches, pool.num_batches());
  std::vector<std::string> payloads;
  for (size_t b = 0; b < batches; ++b) payloads.push_back(pool.Payload(b));

  uint64_t frame_ns = 0, frame_bytes = 0;
  is::net::FrameDecoder decoder(64u << 20);
  for (const std::string& payload : payloads) {
    const uint64_t start = NowNs();
    const std::string frame =
        is::net::EncodeRequestFrame(is::net::MsgType::kObserveBatch, payload);
    const bool appended = decoder.Append(frame).ok();
    auto view = decoder.NextView();
    frame_ns += NowNs() - start;
    frame_bytes += frame.size();
    if (!appended || !view.ok() || !view->has_value()) {
      VerifyFail("frame round trip failed");
      return;
    }
  }
  out->Set("net.frame_ns_per_kb", NsPer(frame_ns, frame_bytes) * 1024.0, "ns");

  uint64_t decode_ns = 0, tuples = 0;
  const std::vector<is::ValueDictionary> no_dicts;
  std::vector<is::ValueId> flat;
  for (const std::string& payload : payloads) {
    flat.clear();
    const uint64_t start = NowNs();
    auto decoded =
        is::net::DecodeObserveBatchInto(payload, pool.schema, no_dicts, &flat);
    decode_ns += NowNs() - start;
    if (!decoded.ok()) {
      VerifyFail("batch decode failed");
      return;
    }
    tuples += *decoded;
  }
  out->Set("net.decode_ns_per_tuple", NsPer(decode_ns, tuples), "ns");
}

/// Itemset packing, hashing and the NIPS/CI update on the first fold
/// unit's projections of the sample.
void CoreTimings(const StreamPool& pool, const QueryEngine& engine,
                 Report* out) {
  const std::vector<QueryEngine::FoldUnit> units = engine.FoldUnits();
  const size_t tuples =
      std::min(kSampleBatches, pool.num_batches()) * kBatchTuples;

  // Every distinct attribute set the registered synopses project on.
  std::map<std::vector<std::string>, std::unique_ptr<is::ItemsetPacker>>
      packers;
  for (const QueryEngine::FoldUnit& unit : units) {
    const is::ImplicationQuerySpec* spec = *engine.Spec(unit.representative);
    for (const auto* side : {&spec->a_attributes, &spec->b_attributes}) {
      if (packers.count(*side) == 0) {
        packers[*side] = std::make_unique<is::ItemsetPacker>(
            pool.schema, Attributes(pool.schema, *side));
      }
    }
  }
  uint64_t sink = 0;
  uint64_t start = NowNs();
  for (size_t t = 0; t < tuples; ++t) {
    const is::TupleRef row(pool.flat.data() + t * pool.width, pool.width);
    for (const auto& [names, packer] : packers) sink ^= packer->Pack(row);
  }
  out->Set("stream.pack_ns_per_tuple", NsPer(NowNs() - start, tuples), "ns");

  const is::ImplicationQuerySpec* spec = *engine.Spec(units[0].representative);
  const is::ItemsetPacker a_packer(pool.schema,
                                   Attributes(pool.schema, spec->a_attributes));
  const is::ItemsetPacker b_packer(pool.schema,
                                   Attributes(pool.schema, spec->b_attributes));
  std::vector<is::ItemsetPair> pairs;
  pairs.reserve(tuples);
  for (size_t t = 0; t < tuples; ++t) {
    const is::TupleRef row(pool.flat.data() + t * pool.width, pool.width);
    pairs.push_back({a_packer.Pack(row), b_packer.Pack(row)});
  }

  auto hasher = is::MakeHasher(is::HashKind::kMix, spec->estimator.nips.seed);
  start = NowNs();
  for (const is::ItemsetPair& pair : pairs) sink ^= hasher->Hash(pair.a);
  out->Set("hash.ns_per_key", NsPer(NowNs() - start, pairs.size()), "ns");

  // ObserveBatch vs Observe on the same pre-packed pairs (256-pair spans,
  // the engine's ObserveStream chunking).
  is::NipsCi batched(spec->conditions, spec->estimator.nips);
  is::NipsCi single(spec->conditions, spec->estimator.nips);
  start = NowNs();
  for (size_t i = 0; i < pairs.size(); i += 256) {
    batched.ObserveBatch(std::span<const is::ItemsetPair>(
        pairs.data() + i, std::min<size_t>(256, pairs.size() - i)));
  }
  out->Set("core.observe_batch_ns_per_tuple", NsPer(NowNs() - start, pairs.size()),
           "ns");
  start = NowNs();
  for (const is::ItemsetPair& pair : pairs) single.Observe(pair.a, pair.b);
  out->Set("core.observe_ns_per_tuple", NsPer(NowNs() - start, pairs.size()),
           "ns");
  if (*batched.SerializeState() != *single.SerializeState()) {
    VerifyFail("ObserveBatch and Observe disagree");
  }
  g_sink = sink;
}

/// Readout, serialization and merge costs on the twin's synopses.
void SynopsisTimings(const QueryEngine& engine, Report* out) {
  uint64_t tracked = 0;
  std::vector<double> std_error_us, serialize_us, merge_us;
  for (const QueryEngine::FoldUnit& unit : engine.FoldUnits()) {
    const is::ImplicationEstimator* est = UnitEstimator(engine, unit);
    if (const auto* nips =
            dynamic_cast<const is::NipsCi*>(is::obs::Unwrap(est))) {
      tracked += nips->TrackedItemsets();
    }
    uint64_t start = NowNs();
    volatile double error = est->EstimateStdError();
    (void)error;
    std_error_us.push_back(static_cast<double>(NowNs() - start) / 1e3);

    start = NowNs();
    auto state = est->SerializeState();
    serialize_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    if (!state.ok()) continue;
    auto fresh = is::MaterializeEstimator(*state);
    auto target = is::MaterializeEstimator(*state);
    if (!fresh.ok() || !target.ok()) continue;
    start = NowNs();
    const bool merged = (*target)->MergeFrom(**fresh).ok();
    merge_us.push_back(static_cast<double>(NowNs() - start) / 1e3);
    if (!merged) VerifyFail("MergeFrom failed");
  }
  out->Set("core.tracked_itemsets", static_cast<double>(tracked), "count");
  out->Set("core.std_error_us", Median(std_error_us), "us");
  out->Set("core.serialize_us", Median(serialize_us), "us");
  out->Set("core.merge_us", Median(merge_us), "us");

  int derived = 0;
  const std::vector<is::QueryId> active = engine.ActiveQueryIds();
  for (is::QueryId id : active) {
    auto binding = engine.Binding(id);
    if (binding.ok() && *binding == is::QueryBinding::kDerived) ++derived;
  }
  out->Set("query.synopses", engine.num_synopses(), "count");
  out->Set("query.derived_frac",
           static_cast<double>(derived) /
               static_cast<double>(std::max<size_t>(active.size(), 1)),
           "fraction");
}

/// FmInvertMeanRank on a thread whose memo is empty, then memoized.
void InvertTimings(Report* out) {
  std::vector<double> ranks;
  for (int i = 0; i < 512; ++i) ranks.push_back(2.0 + 0.0173 * i);
  double cold_us = 0, warm_ns = 0;
  std::thread fresh([&] {
    volatile double sink = 0;
    uint64_t start = NowNs();
    for (double rank : ranks) sink = sink + is::FmInvertMeanRank(rank);
    cold_us = static_cast<double>(NowNs() - start) / 1e3 /
              static_cast<double>(ranks.size());
    start = NowNs();
    for (double rank : ranks) sink = sink + is::FmInvertMeanRank(rank);
    warm_ns = static_cast<double>(NowNs() - start) /
              static_cast<double>(ranks.size());
  });
  fresh.join();
  out->Set("sketch.invert_us_cold", cold_us, "us");
  out->Set("sketch.invert_ns_warm", warm_ns, "ns");
}

/// Share of ObserveStream time the armed triggers add (0 when the
/// workload arms none).
void TriggerShare(const StreamPool& pool, const Registrar& registrar,
                  Report* out) {
  QueryEngine armed(pool.schema), unarmed(pool.schema);
  QuerySet armed_queries, unarmed_queries;
  if (!registrar(armed, true, &armed_queries).ok() ||
      !registrar(unarmed, false, &unarmed_queries).ok()) {
    VerifyFail("trigger-share registration failed");
    return;
  }
  if (armed_queries.triggers == 0) {
    out->Set("cql.tick_share", 0, "fraction");
    return;
  }
  uint64_t armed_ns = 0, unarmed_ns = 0;
  const size_t batches = std::min<size_t>(4 * kSampleBatches, pool.num_batches());
  for (size_t b = 0; b < batches; ++b) {
    armed_ns += ApplyBatch(armed, pool.schema, pool.Batch(b));
    unarmed_ns += ApplyBatch(unarmed, pool.schema, pool.Batch(b));
  }
  out->Set("cql.tick_share",
           (static_cast<double>(armed_ns) - static_cast<double>(unarmed_ns)) /
               static_cast<double>(std::max<uint64_t>(armed_ns, 1)),
           "fraction");
}

}  // namespace

void DirectLayerTimings(const StreamPool& pool, QueryEngine& twin,
                        const Registrar& registrar, Report* out) {
  NetTimings(pool, out);
  CoreTimings(pool, twin, out);
  SynopsisTimings(twin, out);
  InvertTimings(out);
  TriggerShare(pool, registrar, out);
}

void SpanLayerTimings(const std::vector<is::obs::SpanRecord>& spans,
                      Report* out) {
  std::map<uint64_t, const is::obs::SpanRecord*> by_id;
  for (const is::obs::SpanRecord& span : spans) by_id[span.span_id] = &span;
  std::vector<double> handoff_us, observe_apply_us, query_apply_us, encode_us;
  for (const is::obs::SpanRecord& span : spans) {
    const double us = static_cast<double>(span.duration_ns) / 1e3;
    if (std::strcmp(span.name, "server.reactor_handoff") == 0) {
      handoff_us.push_back(static_cast<double>(Annotation(span, "queue_ns")) /
                           1e3);
    } else if (std::strcmp(span.name, "server.apply") == 0) {
      if (HasAnnotation(span, "tuples")) observe_apply_us.push_back(us);
      if (HasAnnotation(span, "queries")) query_apply_us.push_back(us);
    } else if (std::strcmp(span.name, "server.encode") == 0) {
      auto parent = by_id.find(span.parent_id);
      if (parent != by_id.end() &&
          std::strcmp(parent->second->detail,
                      is::net::MsgTypeName(is::net::MsgType::kQuery)) == 0) {
        encode_us.push_back(us);
      }
    }
  }
  out->Set("net.handoff_wait_us_p50", Percentile(handoff_us, 0.5), "us");
  out->Set("net.handoff_wait_us_p99", Percentile(handoff_us, 0.99), "us");
  out->Set("net.observe_apply_us_p99", Percentile(observe_apply_us, 0.99),
           "us");
  out->Set("net.query_apply_us_p50", Percentile(query_apply_us, 0.5), "us");
  out->Set("net.encode_us_p50", Percentile(encode_us, 0.5), "us");
  out->Note("samples.spans", static_cast<double>(spans.size()));
  out->Note("samples.handoff_spans", static_cast<double>(handoff_us.size()));
  out->Note("samples.query_apply_spans",
            static_cast<double>(query_apply_us.size()));
  out->Note("samples.query_encode_spans", static_cast<double>(encode_us.size()));
}

}  // namespace perfbench
