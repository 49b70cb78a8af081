#include "core/sliding.h"

#include <string>
#include <utility>

#include "util/logging.h"
#include "util/random.h"
#include "util/serde.h"

namespace implistat {

SlidingNipsCi::SlidingNipsCi(ImplicationConditions conditions,
                             SlidingOptions options)
    : conditions_(conditions),
      options_(options),
      next_seed_(options.estimator.seed) {
  IMPLISTAT_CHECK(options_.stride >= 1);
  IMPLISTAT_CHECK(options_.window >= options_.stride);
  IMPLISTAT_CHECK(options_.window % options_.stride == 0)
      << "stride must divide window";
}

void SlidingNipsCi::Observe(ItemsetKey a, ItemsetKey b) {
  if (tuples_ % options_.stride == 0) {
    // Open a new origin. Each gets its own hash seed so that the
    // estimators' errors are independent.
    NipsCiOptions opts = options_.estimator;
    opts.seed = SplitMix64(next_seed_++ + 0x51d1);
    origins_.push_back(
        Origin{tuples_, std::make_unique<NipsCi>(conditions_, opts)});
  }
  for (Origin& origin : origins_) origin.estimator->Observe(a, b);
  ++tuples_;
  // Retire origins more than one window old; the youngest origin at least
  // `window` old answers window queries, older ones are no longer needed.
  while (origins_.size() >= 2 &&
         origins_[1].start + options_.window <= tuples_) {
    origins_.pop_front();
  }
}

double SlidingNipsCi::EstimateImplicationCount() const {
  if (origins_.empty()) return 0.0;
  // The front origin is the youngest one that is >= window old (or the
  // stream start before a full window has elapsed).
  return origins_.front().estimator->EstimateImplicationCount();
}

double SlidingNipsCi::EstimateNonImplicationCount() const {
  if (origins_.empty()) return 0.0;
  return origins_.front().estimator->EstimateNonImplicationCount();
}

size_t SlidingNipsCi::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  for (const Origin& origin : origins_) {
    bytes += sizeof(Origin) + origin.estimator->MemoryBytes();
  }
  return bytes;
}

StatusOr<std::string> SlidingNipsCi::SerializeState() const {
  ByteWriter out;
  conditions_.SerializeTo(&out);
  out.PutVarint64(options_.window);
  out.PutVarint64(options_.stride);
  out.PutVarint64(tuples_);
  out.PutVarint64(next_seed_);
  out.PutVarint64(origins_.size());
  for (const Origin& origin : origins_) {
    out.PutVarint64(origin.start);
    out.PutLengthPrefixed(origin.estimator->Serialize());
  }
  return WrapSnapshot(SnapshotKind::kSlidingNipsCi, out.Release());
}

Status SlidingNipsCi::RestoreState(std::string_view snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(snapshot, SnapshotKind::kSlidingNipsCi));
  ByteReader in(payload);
  IMPLISTAT_ASSIGN_OR_RETURN(ImplicationConditions conditions,
                             ImplicationConditions::Deserialize(&in));
  SlidingOptions options = options_;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&options.window));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&options.stride));
  // The constructor CHECK-aborts on these; a corrupt snapshot must fail
  // with a Status instead.
  if (options.stride < 1 || options.window < options.stride ||
      options.window % options.stride != 0) {
    return Status::InvalidArgument("SlidingNipsCi: bad window geometry");
  }
  uint64_t tuples, next_seed, num_origins;
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&tuples));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&next_seed));
  IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&num_origins));
  // Steady state keeps window/stride + 1 origins; allow that bound (the
  // retirement loop keeps at most one origin older than a window).
  if (num_origins > options.window / options.stride + 1 ||
      num_origins > in.remaining()) {
    return Status::InvalidArgument("SlidingNipsCi: implausible origin count");
  }
  std::deque<Origin> origins;
  uint64_t prev_start = 0;
  for (uint64_t i = 0; i < num_origins; ++i) {
    uint64_t start;
    IMPLISTAT_RETURN_NOT_OK(in.ReadVarint64(&start));
    // Origins open at stride boundaries, in increasing order, never in
    // the future.
    if (start % options.stride != 0 || start > tuples ||
        (i > 0 && start <= prev_start)) {
      return Status::InvalidArgument("SlidingNipsCi: bad origin start");
    }
    prev_start = start;
    std::string_view sketch_bytes;
    IMPLISTAT_RETURN_NOT_OK(in.ReadLengthPrefixed(&sketch_bytes));
    IMPLISTAT_ASSIGN_OR_RETURN(NipsCi decoded,
                               NipsCi::Deserialize(sketch_bytes));
    if (!(decoded.conditions() == conditions)) {
      return Status::InvalidArgument(
          "SlidingNipsCi: origin conditions differ from the window's");
    }
    origins.push_back(
        Origin{start, std::make_unique<NipsCi>(std::move(decoded))});
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("SlidingNipsCi: trailing bytes");
  }
  conditions_ = conditions;
  options_ = options;
  origins_ = std::move(origins);
  tuples_ = tuples;
  next_seed_ = next_seed;
  return Status::OK();
}

}  // namespace implistat
