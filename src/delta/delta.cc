#include "delta/delta.h"

#include <string>
#include <utility>

#include "core/nips_ci_ensemble.h"
#include "delta/codec.h"
#include "util/serde.h"

namespace implistat {

std::string WrapDeltaSnapshot(uint64_t base_epoch, uint64_t new_epoch,
                              std::string_view fragment, bool allow_rle) {
  uint8_t flags = 0;
  std::string compressed;
  std::string_view body = fragment;
  if (allow_rle) {
    compressed = delta::RleCompress(fragment);
    if (compressed.size() < fragment.size()) {
      flags |= kDeltaFlagRle;
      body = compressed;
    }
  }
  ByteWriter out;
  out.PutU8(kDeltaFormatVersion);
  out.PutU8(flags);
  out.PutVarint64(base_epoch);
  out.PutVarint64(new_epoch);
  out.PutVarint64(fragment.size());
  out.PutBytes(body);
  return WrapSnapshot(SnapshotKind::kDeltaSnapshot, out.str());
}

namespace {

// Shared header parse; leaves `in` positioned at the body.
Status ReadDeltaHeader(ByteReader* in, DeltaInfo* info,
                       uint64_t* uncompressed_len) {
  uint8_t version, flags;
  IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&version));
  if (version != kDeltaFormatVersion) {
    return Status::InvalidArgument("delta: unknown format version " +
                                   std::to_string(version));
  }
  IMPLISTAT_RETURN_NOT_OK(in->ReadU8(&flags));
  if (flags & ~kDeltaFlagRle) {
    return Status::InvalidArgument("delta: unknown flag bits");
  }
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&info->base_epoch));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(&info->new_epoch));
  IMPLISTAT_RETURN_NOT_OK(in->ReadVarint64(uncompressed_len));
  info->compressed = (flags & kDeltaFlagRle) != 0;
  return Status::OK();
}

}  // namespace

StatusOr<std::string> UnwrapDeltaSnapshot(std::string_view delta_snapshot,
                                          DeltaInfo* info) {
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(delta_snapshot, SnapshotKind::kDeltaSnapshot));
  ByteReader in(payload);
  DeltaInfo parsed;
  uint64_t uncompressed_len;
  IMPLISTAT_RETURN_NOT_OK(ReadDeltaHeader(&in, &parsed, &uncompressed_len));
  std::string_view body;
  IMPLISTAT_RETURN_NOT_OK(in.ReadBytes(in.remaining(), &body));
  std::string fragment;
  if (parsed.compressed) {
    IMPLISTAT_ASSIGN_OR_RETURN(fragment,
                               delta::RleDecompress(body, uncompressed_len));
  } else {
    if (body.size() != uncompressed_len) {
      return Status::InvalidArgument("delta: body length mismatch");
    }
    fragment.assign(body);
  }
  if (info != nullptr) *info = parsed;
  return fragment;
}

StatusOr<DeltaInfo> ApplyDeltaSnapshot(ImplicationEstimator* estimator,
                                       std::string_view delta_snapshot,
                                       uint64_t expected_base_epoch) {
  DeltaInfo info;
  IMPLISTAT_ASSIGN_OR_RETURN(std::string fragment,
                             UnwrapDeltaSnapshot(delta_snapshot, &info));
  if (info.base_epoch != expected_base_epoch) {
    return Status::FailedPrecondition(
        "delta: base epoch " + std::to_string(info.base_epoch) +
        " does not match the held snapshot epoch " +
        std::to_string(expected_base_epoch));
  }
  IMPLISTAT_RETURN_NOT_OK(estimator->ApplyDelta(fragment));
  return info;
}

StatusOr<std::unique_ptr<ImplicationEstimator>> MaterializeEstimator(
    std::string_view full_snapshot) {
  IMPLISTAT_ASSIGN_OR_RETURN(SnapshotKind kind,
                             PeekSnapshotKind(full_snapshot));
  if (kind != SnapshotKind::kNipsCi) {
    return Status::Unimplemented(
        std::string("delta: no estimator materialization for snapshot "
                    "kind ") +
        SnapshotKindName(kind));
  }
  IMPLISTAT_ASSIGN_OR_RETURN(
      std::string_view payload,
      UnwrapSnapshot(full_snapshot, SnapshotKind::kNipsCi));
  IMPLISTAT_ASSIGN_OR_RETURN(NipsCi decoded, NipsCi::Deserialize(payload));
  return std::unique_ptr<ImplicationEstimator>(
      std::make_unique<NipsCi>(std::move(decoded)));
}

bool KindSupportsDeltas(SnapshotKind kind) {
  return kind == SnapshotKind::kNipsCi;
}

}  // namespace implistat
