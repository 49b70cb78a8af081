// Delta snapshot shipping: the envelope and apply layer over the
// per-estimator delta fragments (core/estimator.h SerializeDelta /
// ApplyDelta).
//
// A delta snapshot is a kDeltaSnapshot envelope (util/envelope.h — magic,
// version, CRC32C) whose payload is:
//
//   offset  field
//   ------  -----------------------------------------------------------
//   0       delta format version (u8; currently 1)
//   1       flags (u8; bit 0 = body is RLE-compressed, see delta/codec.h)
//   2       base epoch (varint — the snapshot the receiver must hold)
//   ..      new epoch (varint — what the receiver holds after applying)
//   ..      uncompressed body length (varint)
//   ..      body: the estimator's delta fragment
//
// Epochs are opaque monotone counters assigned by whoever serves the
// snapshots (the server's per-query snapshot counter, the supervisor's
// per-edge ack). A receiver applies a delta if and only if its base epoch
// equals the epoch of the state it holds; anything else — epoch mismatch,
// decode refusal, unknown version — is answered by re-pulling a full
// snapshot (the resync path), never by a partial apply.

#ifndef IMPLISTAT_DELTA_DELTA_H_
#define IMPLISTAT_DELTA_DELTA_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/estimator.h"
#include "util/envelope.h"
#include "util/status_or.h"

namespace implistat {

inline constexpr uint8_t kDeltaFormatVersion = 1;
inline constexpr uint8_t kDeltaFlagRle = 0x01;

struct DeltaInfo {
  uint64_t base_epoch = 0;
  uint64_t new_epoch = 0;
  bool compressed = false;
};

/// Seals an estimator delta fragment into a kDeltaSnapshot envelope.
/// With `allow_rle`, the body is RLE-compressed when that actually
/// shrinks it (bitmap-diff masks and sparse patches usually do; the flag
/// exists because compression is a negotiated capability on the wire —
/// see net/wire.h SNAPSHOT_DELTA).
std::string WrapDeltaSnapshot(uint64_t base_epoch, uint64_t new_epoch,
                              std::string_view fragment, bool allow_rle);

/// Validates the envelope, decompresses if needed, and returns the raw
/// estimator fragment. `info` (optional) receives the header fields.
StatusOr<std::string> UnwrapDeltaSnapshot(std::string_view delta_snapshot,
                                          DeltaInfo* info);

/// The receiver-side fold: unwraps `delta_snapshot`, refuses unless its
/// base epoch equals `expected_base_epoch` (FailedPrecondition — the
/// caller resyncs with a full snapshot), then applies the fragment to
/// `estimator` under the no-partial-mutation contract. On success the
/// estimator's SerializeState is byte-identical to the sender's and the
/// caller should advance its epoch to the returned DeltaInfo::new_epoch.
StatusOr<DeltaInfo> ApplyDeltaSnapshot(ImplicationEstimator* estimator,
                                       std::string_view delta_snapshot,
                                       uint64_t expected_base_epoch);

/// Builds a live estimator from a full durable snapshot, dispatching on
/// the envelope's SnapshotKind. Supports the one kind that serves deltas
/// (kNipsCi); everything else, windows included, is Unimplemented and
/// stays on the full-snapshot pull path.
StatusOr<std::unique_ptr<ImplicationEstimator>> MaterializeEstimator(
    std::string_view full_snapshot);

/// True for snapshot kinds with a delta-capable estimator behind them.
bool KindSupportsDeltas(SnapshotKind kind);

}  // namespace implistat

#endif  // IMPLISTAT_DELTA_DELTA_H_
