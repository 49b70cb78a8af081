#include "query/query.h"

#include "baseline/exact_counter.h"
#include "core/sliding.h"
#include "util/logging.h"

namespace implistat {

namespace {

// Shared field readers for the config wire format. Every value an
// estimator constructor IMPLISTAT_CHECKs is re-validated here so decoding
// hostile bytes returns a Status instead of aborting the process.

Status ReadHashKind(ByteReader* in, HashKind* out) {
  uint8_t byte;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&byte));
  if (byte > static_cast<uint8_t>(HashKind::kLinearGf2)) {
    return Status::InvalidArgument("estimator config: unknown hash kind");
  }
  *out = static_cast<HashKind>(byte);
  return Status::OK();
}

Status ReadUnitInterval(ByteReader* in, const char* what, double* out) {
  double v;
  IMPLISTAT_RETURN_NOT_OK(in->ReadDouble(&v));
  // Positively phrased so NaN (which fails every comparison) is rejected.
  if (!(v > 0.0 && v < 1.0)) {
    return Status::InvalidArgument(std::string("estimator config: ") + what +
                                   " outside (0, 1)");
  }
  *out = v;
  return Status::OK();
}

Status ReadI32(ByteReader* in, int* out) {
  uint32_t v;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

}  // namespace

void EstimatorConfig::SerializeTo(ByteWriter* out) const {
  out->PutU8(static_cast<uint8_t>(kind));
  out->PutVarint64(window);
  out->PutVarint64(stride);
  out->PutVarint64(static_cast<uint64_t>(nips.num_bitmaps));
  out->PutU32(static_cast<uint32_t>(nips.nips.fringe_size));
  out->PutU32(static_cast<uint32_t>(nips.nips.capacity_factor));
  out->PutU32(static_cast<uint32_t>(nips.nips.bitmap_bits));
  out->PutU8(static_cast<uint8_t>(nips.hash_kind));
  out->PutU64(nips.seed);
  out->PutVarint64(ds.max_sample_entries);
  out->PutVarint64(ds.per_value_bound);
  out->PutU8(static_cast<uint8_t>(ds.hash_kind));
  out->PutU64(ds.seed);
  out->PutDouble(ilc.epsilon);
  out->PutDouble(iss.epsilon);
  out->PutDouble(iss.delta);
  out->PutDouble(iss.support);
  out->PutU64(iss.seed);
}

StatusOr<EstimatorConfig> EstimatorConfig::Deserialize(ByteReader* in) {
  EstimatorConfig config;
  uint8_t kind_byte;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&kind_byte));
  if (kind_byte > static_cast<uint8_t>(EstimatorKind::kIss)) {
    return Status::InvalidArgument("estimator config: unknown kind");
  }
  config.kind = static_cast<EstimatorKind>(kind_byte);
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&config.window));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&config.stride));
  // Window/stride geometry is re-checked by MakeEstimator (it returns a
  // Status, never aborts), so only the constructor-asserted fields need
  // explicit validation here.
  uint64_t num_bitmaps;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&num_bitmaps));
  if (num_bitmaps < 1 || num_bitmaps > (uint64_t{1} << 20) ||
      (num_bitmaps & (num_bitmaps - 1)) != 0) {
    return Status::InvalidArgument(
        "estimator config: num_bitmaps must be a power of two");
  }
  config.nips.num_bitmaps = static_cast<int>(num_bitmaps);
  IMPLISTAT_RETURN_NOT_OK(ReadI32(in, &config.nips.nips.fringe_size));
  if (config.nips.nips.fringe_size > 20) {
    return Status::InvalidArgument("estimator config: implausible fringe size");
  }
  IMPLISTAT_RETURN_NOT_OK(ReadI32(in, &config.nips.nips.capacity_factor));
  if (config.nips.nips.capacity_factor > (1 << 20)) {
    return Status::InvalidArgument(
        "estimator config: implausible capacity factor");
  }
  IMPLISTAT_RETURN_NOT_OK(ReadI32(in, &config.nips.nips.bitmap_bits));
  if (config.nips.nips.bitmap_bits < 1 || config.nips.nips.bitmap_bits > 64) {
    return Status::InvalidArgument(
        "estimator config: bitmap_bits outside [1, 64]");
  }
  IMPLISTAT_RETURN_NOT_OK(ReadHashKind(in, &config.nips.hash_kind));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&config.nips.seed));
  uint64_t max_entries;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&max_entries));
  if (max_entries < 1 || max_entries > (uint64_t{1} << 32)) {
    return Status::InvalidArgument(
        "estimator config: DS sample budget out of range");
  }
  config.ds.max_sample_entries = static_cast<size_t>(max_entries);
  uint64_t per_value;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&per_value));
  if (per_value > (uint64_t{1} << 32)) {
    return Status::InvalidArgument(
        "estimator config: DS per-value bound out of range");
  }
  config.ds.per_value_bound = static_cast<size_t>(per_value);
  IMPLISTAT_RETURN_NOT_OK(ReadHashKind(in, &config.ds.hash_kind));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&config.ds.seed));
  IMPLISTAT_RETURN_NOT_OK(ReadUnitInterval(in, "ILC epsilon",
                                           &config.ilc.epsilon));
  IMPLISTAT_RETURN_NOT_OK(ReadUnitInterval(in, "ISS epsilon",
                                           &config.iss.epsilon));
  IMPLISTAT_RETURN_NOT_OK(ReadUnitInterval(in, "ISS delta",
                                           &config.iss.delta));
  IMPLISTAT_RETURN_NOT_OK(ReadUnitInterval(in, "ISS support",
                                           &config.iss.support));
  IMPLISTAT_RETURN_NOT_OK(in->ReadU64(&config.iss.seed));
  return config;
}

void ImplicationQuerySpec::SerializeTo(ByteWriter* out) const {
  out->PutVarint64(a_attributes.size());
  for (const std::string& name : a_attributes) out->PutLengthPrefixed(name);
  out->PutVarint64(b_attributes.size());
  for (const std::string& name : b_attributes) out->PutLengthPrefixed(name);
  conditions.SerializeTo(out);
  out->PutBool(where != nullptr);
  if (where != nullptr) where->SerializeTo(out);
  out->PutBool(complement);
  estimator.SerializeTo(out);
  out->PutLengthPrefixed(label);
}

namespace {

Status ReadAttributeNames(ByteReader* in, const char* side,
                          std::vector<std::string>* out) {
  uint64_t count;
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&count));
  if (count > in->remaining()) {  // every name costs >= 1 length byte
    return Status::InvalidArgument(std::string("query spec: implausible ") +
                                   side + " attribute count");
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    IMPLISTAT_RETURN_NOT_OK(in->ReadLengthPrefixed(&name));
    out->emplace_back(name);
  }
  return Status::OK();
}

}  // namespace

StatusOr<ImplicationQuerySpec> ImplicationQuerySpec::Deserialize(
    ByteReader* in, int num_attributes) {
  ImplicationQuerySpec spec;
  IMPLISTAT_RETURN_NOT_OK(ReadAttributeNames(in, "A", &spec.a_attributes));
  IMPLISTAT_RETURN_NOT_OK(ReadAttributeNames(in, "B", &spec.b_attributes));
  IMPLISTAT_ASSIGN_OR_RETURN(spec.conditions,
                             ImplicationConditions::Deserialize(in));
  bool has_where;
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&has_where));
  if (has_where) {
    IMPLISTAT_ASSIGN_OR_RETURN(spec.where,
                               DeserializePredicate(in, num_attributes));
  }
  IMPLISTAT_RETURN_NOT_OK(in->ReadBool(&spec.complement));
  IMPLISTAT_ASSIGN_OR_RETURN(spec.estimator, EstimatorConfig::Deserialize(in));
  std::string_view label;
  IMPLISTAT_RETURN_NOT_OK(in->ReadLengthPrefixed(&label));
  spec.label = std::string(label);
  return spec;
}

StatusOr<std::unique_ptr<ImplicationEstimator>> MakeEstimator(
    const ImplicationConditions& conditions, const EstimatorConfig& config) {
  if (config.window > 0) {
    if (config.kind != EstimatorKind::kNipsCi) {
      return Status::InvalidArgument(
          "windowed queries require the NIPS/CI estimator");
    }
    SlidingOptions sliding;
    sliding.window = config.window;
    sliding.stride =
        config.stride > 0 ? config.stride : (config.window + 7) / 8;
    if (sliding.stride > sliding.window) sliding.stride = sliding.window;
    // The rotation scheme retires estimators at exact multiples.
    if (sliding.window % sliding.stride != 0) {
      return Status::InvalidArgument("stride must divide the window");
    }
    sliding.estimator = config.nips;
    return std::unique_ptr<ImplicationEstimator>(
        std::make_unique<SlidingNipsCi>(conditions, sliding));
  }
  switch (config.kind) {
    case EstimatorKind::kNipsCi:
      return std::unique_ptr<ImplicationEstimator>(
          std::make_unique<NipsCi>(conditions, config.nips));
    case EstimatorKind::kExact:
      return std::unique_ptr<ImplicationEstimator>(
          std::make_unique<ExactImplicationCounter>(conditions));
    case EstimatorKind::kDistinctSampling:
      return std::unique_ptr<ImplicationEstimator>(
          std::make_unique<DistinctSampling>(conditions, config.ds));
    case EstimatorKind::kIlc:
      return std::unique_ptr<ImplicationEstimator>(
          std::make_unique<Ilc>(conditions, config.ilc));
    case EstimatorKind::kIss:
      return std::unique_ptr<ImplicationEstimator>(
          std::make_unique<ImplicationStickySampling>(conditions,
                                                      config.iss));
  }
  IMPLISTAT_CHECK(false) << "unknown EstimatorKind";
  return Status::Internal("unreachable");
}

}  // namespace implistat
