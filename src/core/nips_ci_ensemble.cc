#include "core/nips_ci_ensemble.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "delta/codec.h"
#include "obs/metrics.h"
#include "sketch/fm_sketch.h"
#include "util/bits.h"
#include "util/logging.h"
#include "util/serde.h"

namespace implistat {

namespace {

// Pipeline-level ingest and distribution metrics for the user-facing
// estimator (per-bitmap fringe traffic lives in nips.cc).
struct NipsCiMetrics {
  obs::Counter* tuples_observed;
  obs::Histogram* observe_latency_ns;
  obs::Counter* merges;
  obs::Counter* serializes;
  obs::Counter* serialize_bytes;
  obs::Counter* deserializes;

  static NipsCiMetrics& Get() {
    auto& reg = obs::MetricsRegistry::Global();
    static NipsCiMetrics m{
        reg.GetCounter("implistat_tuples_observed_total",
                       "Tuples ingested through NipsCi::Observe (the "
                       "stream length n as the sketch saw it)"),
        reg.GetHistogram("implistat_observe_latency_ns",
                         "Sampled NipsCi::Observe latency in nanoseconds "
                         "(1 in 1024 calls timed; power-of-two buckets)"),
        reg.GetCounter("nips_merges_total",
                       "Ensemble merges folded in via NipsCi::Merge (the "
                       "distributed-aggregation path)"),
        reg.GetCounter("nips_serializes_total",
                       "Sketches serialized for the wire"),
        reg.GetCounter("nips_serialize_bytes_total",
                       "Wire bytes produced by NipsCi::Serialize"),
        reg.GetCounter("nips_deserializes_total",
                       "Sketches decoded from the wire"),
    };
    return m;
  }
};

}  // namespace

NipsCi::NipsCi(ImplicationConditions conditions, NipsCiOptions options)
    : conditions_(conditions),
      options_(options),
      hasher_(MakeHasher(options.hash_kind, options.seed)),
      route_bits_(CeilLog2(static_cast<uint64_t>(options.num_bitmaps))) {
  IMPLISTAT_CHECK(options.num_bitmaps >= 1 &&
                  IsPowerOfTwo(static_cast<uint64_t>(options.num_bitmaps)))
      << "num_bitmaps must be a power of two";
  // Routing consumes log2(m) hash bits; shrink the per-bitmap length to
  // what the remaining bits can feed.
  if (options_.nips.bitmap_bits + route_bits_ > 64) {
    options_.nips.bitmap_bits = 64 - route_bits_;
  }
  IMPLISTAT_CHECK(options_.nips.bitmap_bits >= 1)
      << "too many bitmaps for a 64-bit hash";
  bitmaps_.reserve(static_cast<size_t>(options.num_bitmaps));
  for (int i = 0; i < options.num_bitmaps; ++i) {
    bitmaps_.emplace_back(conditions_, options_.nips);
  }
  // Fill the shared readout table for this m now, in set-up, so that no
  // estimate pays for it (sketch/fm_sketch.h).
  (void)FmEnsembleReadout(bitmaps_.size());
  // Pre-register the pipeline metrics (merge/serialize counters included)
  // so a snapshot taken before any such event still lists them at zero.
  IMPLISTAT_IF_METRICS(NipsCiMetrics::Get());
}

void NipsCi::ObserveImpl(ItemsetKey a, ItemsetKey b) {
  Route route = RouteOf(a);
  bitmaps_[route.bitmap].ObserveAt(route.cell, a, b);
}

void NipsCi::ObserveBatch(std::span<const ItemsetPair> batch) {
  // Three passes per chunk: (1) hash — a tight loop with no memory
  // dependencies, (2) prefetch every target cell, (3) the per-cell
  // updates, whose leading loads now overlap instead of serializing on
  // misses. Per-bitmap observation order is exactly batch order, so the
  // sketch state is bit-identical to the per-tuple path.
  constexpr size_t kChunk = 32;
  Route routes[kChunk];
  for (size_t base = 0; base < batch.size(); base += kChunk) {
    const size_t n = std::min(kChunk, batch.size() - base);
    for (size_t i = 0; i < n; ++i) routes[i] = RouteOf(batch[base + i].a);
    for (size_t i = 0; i < n; ++i) {
      bitmaps_[routes[i].bitmap].PrefetchCell(routes[i].cell);
    }
    for (size_t i = 0; i < n; ++i) {
      const ItemsetPair& p = batch[base + i];
      bitmaps_[routes[i].bitmap].ObserveAt(routes[i].cell, p.a, p.b);
    }
  }
  // Keep ObserveCalls() exact without running the per-tuple countdown;
  // batch-fed tuples skip the sampled latency histogram.
  IMPLISTAT_IF_METRICS(observe_count_base_ += batch.size());
}

void NipsCi::Observe(ItemsetKey a, ItemsetKey b) {
  if constexpr (obs::kMetricsEnabled) {
    // The common path costs one decrement-and-test of a hot member; the
    // registry's atomics and the clock live in the outlined 1-in-1024
    // path (and in FlushMetrics at read boundaries).
    if (--sample_countdown_ == 0) [[unlikely]] {
      ObserveSampled(a, b);
      return;
    }
  }
  ObserveImpl(a, b);
}

__attribute__((noinline)) void NipsCi::ObserveSampled(ItemsetKey a,
                                                      ItemsetKey b) {
  // The countdown just hit zero: close this sampling window before the
  // refill so ObserveCalls() stays exact across the reset.
  observe_count_base_ += obs::kLatencySampleMask + 1;
  sample_countdown_ = obs::kLatencySampleMask + 1;
  NipsCiMetrics& m = NipsCiMetrics::Get();
  m.tuples_observed->Increment(ObserveCalls() - observe_flushed_);
  observe_flushed_ = ObserveCalls();
  obs::ScopedTimer timer(m.observe_latency_ns);
  ObserveImpl(a, b);
}

void NipsCi::FlushMetrics() const {
  if constexpr (obs::kMetricsEnabled) {
    if (ObserveCalls() != observe_flushed_) {
      NipsCiMetrics::Get().tuples_observed->Increment(ObserveCalls() -
                                                      observe_flushed_);
      observe_flushed_ = ObserveCalls();
    }
    for (const Nips& nips : bitmaps_) nips.FlushMetrics();
  }
}

CiEstimate NipsCi::Estimate() const {
  FlushMetrics();
  return CiFromEnsemble(std::span<const Nips>(bitmaps_));
}

double NipsCi::EstimateImplicationCount() const {
  return Estimate().implication;
}

double NipsCi::EstimateNonImplicationCount() const {
  return Estimate().non_implication;
}

double NipsCi::EstimateSupportedDistinct() const {
  return Estimate().supported_distinct;
}

double NipsCi::EstimateStdError() const {
  FlushMetrics();
  return CiEnsembleStdError(std::span<const Nips>(bitmaps_)).implication;
}

double NipsCi::EstimateNonImplicationStdError() const {
  FlushMetrics();
  return CiEnsembleStdError(std::span<const Nips>(bitmaps_)).non_implication;
}

Status NipsCi::Merge(const NipsCi& other) {
  if (!(conditions_ == other.conditions_)) {
    return Status::InvalidArgument("NipsCi::Merge: conditions differ");
  }
  if (options_.num_bitmaps != other.options_.num_bitmaps ||
      options_.seed != other.options_.seed ||
      options_.hash_kind != other.options_.hash_kind) {
    return Status::InvalidArgument(
        "NipsCi::Merge: ensembles are not hash-compatible");
  }
  // A merge mutates fringe itemsets without stamping them, so every
  // remembered delta baseline becomes unsound; dropping the marks makes
  // the next SerializeDelta resync with a full snapshot.
  delta_marks_.clear();
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    IMPLISTAT_RETURN_NOT_OK(bitmaps_[i].Merge(other.bitmaps_[i]));
  }
  IMPLISTAT_IF_METRICS(NipsCiMetrics::Get().merges->Increment());
  return Status::OK();
}

namespace {
constexpr uint8_t kNipsCiFormatVersion = 1;
}  // namespace

std::string NipsCi::Serialize() const {
  FlushMetrics();
  ByteWriter out;
  out.PutU8(kNipsCiFormatVersion);
  out.PutU32(static_cast<uint32_t>(options_.num_bitmaps));
  out.PutU8(static_cast<uint8_t>(options_.hash_kind));
  out.PutU64(options_.seed);
  for (const Nips& nips : bitmaps_) nips.SerializeTo(&out);
  std::string bytes = out.Release();
  IMPLISTAT_IF_METRICS({
    NipsCiMetrics& m = NipsCiMetrics::Get();
    m.serializes->Increment();
    m.serialize_bytes->Increment(bytes.size());
  });
  return bytes;
}

StatusOr<NipsCi> NipsCi::Deserialize(std::string_view bytes) {
  ByteReader in(bytes);
  uint8_t version;
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&version));
  if (version != kNipsCiFormatVersion) {
    return Status::InvalidArgument("NipsCi: unknown format version");
  }
  NipsCiOptions options;
  uint32_t num_bitmaps;
  uint8_t hash_kind;
  IMPLISTAT_RETURN_NOT_OK(in.ReadU32(&num_bitmaps));
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&hash_kind));
  IMPLISTAT_RETURN_NOT_OK(in.ReadU64(&options.seed));
  if (num_bitmaps < 1 || num_bitmaps > (1u << 20) ||
      !IsPowerOfTwo(num_bitmaps)) {
    return Status::InvalidArgument("NipsCi: bad bitmap count");
  }
  if (hash_kind > static_cast<uint8_t>(HashKind::kLinearGf2)) {
    return Status::InvalidArgument("NipsCi: bad hash kind");
  }
  options.num_bitmaps = static_cast<int>(num_bitmaps);
  options.hash_kind = static_cast<HashKind>(hash_kind);

  std::vector<Nips> bitmaps;
  bitmaps.reserve(num_bitmaps);
  for (uint32_t i = 0; i < num_bitmaps; ++i) {
    IMPLISTAT_ASSIGN_OR_RETURN(Nips nips, Nips::Deserialize(&in));
    bitmaps.push_back(std::move(nips));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("NipsCi: trailing bytes");
  }
  // Reconstruct through the normal constructor so routing bits and
  // invariants are re-derived, then adopt the decoded bitmaps.
  options.nips = bitmaps.front().options();
  NipsCi out(bitmaps.front().conditions(), options);
  for (uint32_t i = 1; i < num_bitmaps; ++i) {
    if (!(bitmaps[i].conditions() == bitmaps[0].conditions())) {
      return Status::InvalidArgument("NipsCi: inconsistent conditions");
    }
  }
  out.bitmaps_ = std::move(bitmaps);
  IMPLISTAT_IF_METRICS(NipsCiMetrics::Get().deserializes->Increment());
  return out;
}

StatusOr<std::string> NipsCi::SerializeState() const {
  return WrapSnapshot(SnapshotKind::kNipsCi, Serialize());
}

Status NipsCi::RestoreState(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(std::string_view payload,
                             UnwrapSnapshot(snapshot, SnapshotKind::kNipsCi));
  // Decode into a temporary first: *this is only touched once the whole
  // snapshot has validated, so a corrupt input cannot leave a half state.
  IMPLISTAT_ASSIGN_OR_RETURN(NipsCi restored, Deserialize(payload));
  *this = std::move(restored);
  return Status::OK();
}

Status NipsCi::MergeFrom(const ImplicationEstimator& other) {
  if (const auto* nips = dynamic_cast<const NipsCi*>(&other)) {
    return Merge(*nips);
  }
  return Status::InvalidArgument(name() + ": cannot merge " + other.name() +
                                 " state");
}

namespace {
// First byte of every NipsCi delta fragment; a fragment of any other kind
// is refused before it is decoded.
constexpr uint8_t kNipsCiDeltaTag = 1;
constexpr uint8_t kNipsCiDeltaVersion = 1;
}  // namespace

void NipsCi::RecordDeltaMark(uint64_t epoch) {
  std::vector<uint64_t> clocks;
  clocks.reserve(bitmaps_.size());
  for (const Nips& nips : bitmaps_) clocks.push_back(nips.change_clock());
  for (DeltaMark& mark : delta_marks_) {
    if (mark.epoch == epoch) {
      mark.clocks = std::move(clocks);
      return;
    }
  }
  delta_marks_.push_back(DeltaMark{epoch, std::move(clocks)});
  while (delta_marks_.size() > kMaxDeltaMarks) delta_marks_.pop_front();
}

const NipsCi::DeltaMark* NipsCi::FindDeltaMark(uint64_t epoch) const {
  for (const DeltaMark& mark : delta_marks_) {
    if (mark.epoch == epoch) return &mark;
  }
  return nullptr;
}

void NipsCi::NoteSnapshotEpoch(uint64_t epoch) const {
  NipsCi* self = const_cast<NipsCi*>(this);
  for (Nips& nips : self->bitmaps_) nips.EnableDeltaTracking();
  self->RecordDeltaMark(epoch);
}

StatusOr<std::string> NipsCi::SerializeDelta(uint64_t since_epoch,
                                             uint64_t current_epoch) const {
  const DeltaMark* mark = FindDeltaMark(since_epoch);
  if (mark == nullptr) {
    return Status::NotFound("NipsCi: no delta baseline at epoch " +
                            std::to_string(since_epoch));
  }
  FlushMetrics();
  ByteWriter out;
  out.PutU8(kNipsCiDeltaTag);
  out.PutU8(kNipsCiDeltaVersion);
  out.PutVarint64(bitmaps_.size());
  std::vector<bool> changed(bitmaps_.size());
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    changed[i] = bitmaps_[i].change_clock() != mark->clocks[i];
  }
  delta::EncodeMask(changed, &out);
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    if (changed[i]) bitmaps_[i].SerializeDeltaTo(mark->clocks[i], &out);
  }
  // The bytes just produced bring a receiver of the since_epoch snapshot
  // up to the current state; remember it as the next baseline.
  const_cast<NipsCi*>(this)->RecordDeltaMark(current_epoch);
  return out.Release();
}

Status NipsCi::ApplyDelta(std::string_view fragment) {
  // Decode-and-validate into temporaries; only a fully validated
  // fragment mutates the bitmaps (same contract as RestoreState).
  ByteReader in(fragment);
  uint8_t tag, version;
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&tag));
  if (tag != kNipsCiDeltaTag) {
    return Status::InvalidArgument("NipsCi delta: wrong fragment kind");
  }
  IMPLISTAT_RETURN_NOT_OK(in.ReadU8(&version));
  if (version != kNipsCiDeltaVersion) {
    return Status::InvalidArgument("NipsCi delta: unknown format version");
  }
  uint64_t num_bitmaps;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_bitmaps));
  if (num_bitmaps != bitmaps_.size()) {
    return Status::InvalidArgument("NipsCi delta: bitmap count mismatch");
  }
  std::vector<bool> changed;
  IMPLISTAT_RETURN_NOT_OK(delta::DecodeMask(&in, bitmaps_.size(), &changed));
  std::vector<std::pair<size_t, Nips::DeltaPatch>> patches;
  for (size_t i = 0; i < bitmaps_.size(); ++i) {
    if (!changed[i]) continue;
    IMPLISTAT_ASSIGN_OR_RETURN(Nips::DeltaPatch patch,
                               bitmaps_[i].DecodeDeltaSection(&in));
    patches.emplace_back(i, std::move(patch));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("NipsCi delta: trailing bytes");
  }
  for (auto& [index, patch] : patches) {
    bitmaps_[index].ApplyDeltaPatch(std::move(patch));
  }
  return Status::OK();
}

size_t NipsCi::MemoryBytes() const {
  FlushMetrics();
  size_t bytes = sizeof(*this);
  for (const Nips& nips : bitmaps_) bytes += nips.MemoryBytes();
  return bytes;
}

size_t NipsCi::RecountMemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const Nips& nips : bitmaps_) bytes += nips.RecountMemoryBytes();
  return bytes;
}

size_t NipsCi::TrackedItemsets() const {
  FlushMetrics();
  size_t n = 0;
  for (const Nips& nips : bitmaps_) n += nips.TrackedItemsets();
  return n;
}

}  // namespace implistat
