// The self-describing envelope that frames every byte string crossing a
// durability or process boundary: checkpoints on disk (util/serde.h users)
// and request/response frames on a socket (src/net/wire.h).
//
//   offset  field
//   ------  -----------------------------------------------------------
//   0       magic (4 bytes, little-endian u32; identifies the envelope
//           family — snapshots and wire frames use different magics)
//   4       format version (varint)
//   ..      tag (1 byte; SnapshotKind for snapshots, message type for
//           wire frames)
//   ..      payload length (varint)
//   ..      payload bytes
//   end-4   CRC32C (little-endian u32) over every preceding byte
//
// Readers check, in order: magic, version, framing (lengths), CRC, then
// the tag — each failure is a distinct Status, never a crash, and never a
// partial parse of the payload. This header is the public surface; net
// code and estimators alike use it instead of reaching into serde
// internals.

#ifndef IMPLISTAT_UTIL_ENVELOPE_H_
#define IMPLISTAT_UTIL_ENVELOPE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"
#include "util/status_or.h"

namespace implistat {

/// CRC32C (Castagnoli) of `data`; software table implementation.
uint32_t Crc32c(std::string_view data);

// ---------------------------------------------------------------------------
// Generic tagged envelope. An envelope family is a (magic, version, name)
// triple; WrapEnvelope/UnwrapEnvelope are pure functions over it, so the
// snapshot envelope below and the net frame envelope (src/net/wire.h)
// share one implementation — and one set of corruption checks.
// ---------------------------------------------------------------------------

struct EnvelopeFamily {
  uint32_t magic;
  uint64_t version;
  /// Used in error messages ("snapshot: bad magic", "frame: bad magic").
  const char* name;
};

/// Wraps `payload` in an envelope of `family` carrying `tag`.
std::string WrapEnvelope(const EnvelopeFamily& family, uint8_t tag,
                         std::string_view payload);

/// Validates magic, version (exactly family.version — any other is
/// refused with a status naming it), framing and CRC; on success stores
/// the tag and returns a view of the payload (aliasing `bytes`, which
/// must outlive the result).
StatusOr<std::string_view> UnwrapEnvelope(const EnvelopeFamily& family,
                                          std::string_view bytes,
                                          uint8_t* tag);

/// Reads just the tag of a valid-looking envelope (magic + version
/// checked, checksum not). Useful for dispatch before full validation.
StatusOr<uint8_t> PeekEnvelopeTag(const EnvelopeFamily& family,
                                  std::string_view bytes);

// ---------------------------------------------------------------------------
// Snapshot envelope: the durable-state family (magic "IMPS").
// ---------------------------------------------------------------------------

/// Identifies which estimator (or container) produced a snapshot payload.
/// Values are part of the wire format — append only, never renumber.
enum class SnapshotKind : uint8_t {
  kNipsCi = 1,           // NipsCi
  kExactCounter = 2,     // ExactImplicationCounter
  kDistinctSampling = 3, // DistinctSampling
  kIlc = 4,              // Ilc (Implication Lossy Counting)
  kIss = 5,              // ImplicationStickySampling
  kLossyCounting = 6,    // plain frequent-items LossyCounting
  kStickySampling = 7,   // plain frequent-items StickySampling
  kSlidingNipsCi = 8,    // SlidingNipsCi
  // 9 and 10 are retired (the pre-store engine checkpoint and the
  // per-window increment tracker) and stay reserved: never reuse them.
  kValueDictionary = 11,     // per-attribute ValueDictionary vector
  kQueryEngineV2 = 12,   // QueryEngine checkpoint with a synopsis store
  kSynopsisStore = 13,   // shared-synopsis section nested in kQueryEngineV2
  kTriggerStore = 14,    // armed-trigger section nested in kQueryEngineV2
  kDeltaSnapshot = 15,   // delta patch between two epochs (src/delta/)
};

/// Canonical lowercase name of a snapshot kind (for error messages).
const char* SnapshotKindName(SnapshotKind kind);

inline constexpr uint32_t kSnapshotMagic = 0x53504d49;  // "IMPS"
/// 2 since the estimator config inside engine checkpoints lost a field;
/// readers refuse every other version.
inline constexpr uint64_t kSnapshotFormatVersion = 2;

inline constexpr EnvelopeFamily kSnapshotEnvelope{
    kSnapshotMagic, kSnapshotFormatVersion, "snapshot"};

/// Wraps `payload` in a snapshot envelope tagged `kind`.
std::string WrapSnapshot(SnapshotKind kind, std::string_view payload);

/// Validates the envelope and returns a view of the payload (aliasing
/// `bytes`, which must outlive the result). Rejects bad magic, version
/// skew, kind mismatch against `expected_kind`, truncation/length
/// mismatch, and checksum failure — each with a descriptive Status.
StatusOr<std::string_view> UnwrapSnapshot(std::string_view bytes,
                                          SnapshotKind expected_kind);

/// Reads just the kind tag of a valid-looking envelope (magic + version
/// checked, checksum not). Useful for dispatch before full validation.
StatusOr<SnapshotKind> PeekSnapshotKind(std::string_view bytes);

}  // namespace implistat

#endif  // IMPLISTAT_UTIL_ENVELOPE_H_
