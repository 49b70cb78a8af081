#include "util/envelope.h"

#include <cstring>
#include <string>

#include "util/serde.h"

namespace implistat {

namespace {

// CRC32C (Castagnoli, reflected polynomial 0x82f63b78). Every wire
// frame — including the OBSERVE_BATCH ingest path — and every
// checkpoint passes through this, so it dispatches at first use to the
// SSE4.2 crc32 instruction when the CPU has it (8 bytes/cycle-ish) and
// falls back to a 256-entry table built at static-init time.
struct Crc32cTable {
  uint32_t entries[256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
      }
      entries[i] = crc;
    }
  }
};

const Crc32cTable& CrcTable() {
  static const Crc32cTable table;
  return table;
}

// Shared header parse for unwrap/peek: checks magic and that the version
// is exactly family.version, leaves `reader` positioned at the tag byte.
Status ReadEnvelopeHeader(const EnvelopeFamily& family, ByteReader& reader) {
  const std::string what(family.name);
  uint32_t magic;
  IMPLISTAT_RETURN_NOT_OK(reader.ReadU32(&magic));
  if (magic != family.magic) {
    return Status::InvalidArgument(what + ": bad magic (not a " + what +
                                   "?)");
  }
  uint64_t version;
  IMPLISTAT_RETURN_NOT_OK(reader.ReadVarint64(&version));
  if (version != family.version) {
    return Status::InvalidArgument(
        what + ": unsupported format version " + std::to_string(version) +
        " (this build reads version " + std::to_string(family.version) +
        ")");
  }
  return Status::OK();
}

}  // namespace

namespace {

uint32_t Crc32cTableWalk(std::string_view data) {
  const Crc32cTable& table = CrcTable();
  uint32_t crc = ~0u;
  for (char c : data) {
    crc = (crc >> 8) ^ table.entries[(crc ^ static_cast<uint8_t>(c)) & 0xff];
  }
  return ~crc;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(
    std::string_view data) {
  uint64_t crc = ~0u;
  const char* p = data.data();
  size_t n = data.size();
  while (n >= 8) {
    uint64_t chunk;
    std::memcpy(&chunk, p, 8);
    crc = __builtin_ia32_crc32di(crc, chunk);
    p += 8;
    n -= 8;
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  while (n > 0) {
    crc32 = __builtin_ia32_crc32qi(crc32, static_cast<uint8_t>(*p));
    ++p;
    --n;
  }
  return ~crc32;
}
#endif

uint32_t (*ResolveCrc32c())(std::string_view) {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("sse4.2")) return &Crc32cHardware;
#endif
  return &Crc32cTableWalk;
}

}  // namespace

uint32_t Crc32c(std::string_view data) {
  static uint32_t (*const impl)(std::string_view) = ResolveCrc32c();
  return impl(data);
}

std::string WrapEnvelope(const EnvelopeFamily& family, uint8_t tag,
                         std::string_view payload) {
  ByteWriter out;
  out.PutU32(family.magic);
  out.PutVarint64(family.version);
  out.PutU8(tag);
  out.PutVarint64(payload.size());
  out.PutBytes(payload);
  std::string bytes = out.Release();
  uint32_t crc = Crc32c(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return bytes;
}

StatusOr<std::string_view> UnwrapEnvelope(const EnvelopeFamily& family,
                                          std::string_view bytes,
                                          uint8_t* tag) {
  ByteReader reader(bytes);
  IMPLISTAT_RETURN_NOT_OK(ReadEnvelopeHeader(family, reader));
  const std::string what(family.name);
  uint8_t tag_byte;
  IMPLISTAT_RETURN_NOT_OK(reader.ReadU8(&tag_byte));
  uint64_t payload_len;
  IMPLISTAT_RETURN_NOT_OK(reader.ReadVarint64(&payload_len));
  if (payload_len > reader.remaining()) {
    return Status::OutOfRange(what + ": truncated payload");
  }
  std::string_view payload;
  IMPLISTAT_RETURN_NOT_OK(reader.ReadBytes(payload_len, &payload));
  uint32_t stored_crc;
  if (reader.remaining() != sizeof(stored_crc)) {
    return Status::InvalidArgument(what + ": trailing bytes after payload");
  }
  IMPLISTAT_RETURN_NOT_OK(reader.ReadU32(&stored_crc));
  uint32_t actual_crc =
      Crc32c(bytes.substr(0, bytes.size() - sizeof(stored_crc)));
  if (stored_crc != actual_crc) {
    return Status::InvalidArgument(what +
                                   ": CRC32C mismatch (corrupt " + what +
                                   ")");
  }
  *tag = tag_byte;
  return payload;
}

StatusOr<uint8_t> PeekEnvelopeTag(const EnvelopeFamily& family,
                                  std::string_view bytes) {
  ByteReader reader(bytes);
  IMPLISTAT_RETURN_NOT_OK(ReadEnvelopeHeader(family, reader));
  uint8_t tag_byte;
  IMPLISTAT_RETURN_NOT_OK(reader.ReadU8(&tag_byte));
  return tag_byte;
}

const char* SnapshotKindName(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kNipsCi: return "nips_ci";
    case SnapshotKind::kExactCounter: return "exact_counter";
    case SnapshotKind::kDistinctSampling: return "distinct_sampling";
    case SnapshotKind::kIlc: return "ilc";
    case SnapshotKind::kIss: return "implication_sticky_sampling";
    case SnapshotKind::kLossyCounting: return "lossy_counting";
    case SnapshotKind::kStickySampling: return "sticky_sampling";
    case SnapshotKind::kSlidingNipsCi: return "sliding_nips_ci";
    case SnapshotKind::kValueDictionary: return "value_dictionary";
    case SnapshotKind::kQueryEngineV2: return "query_engine_v2";
    case SnapshotKind::kSynopsisStore: return "synopsis_store";
    case SnapshotKind::kTriggerStore: return "trigger_store";
    case SnapshotKind::kDeltaSnapshot: return "delta_snapshot";
  }
  return "unknown";
}

std::string WrapSnapshot(SnapshotKind kind, std::string_view payload) {
  return WrapEnvelope(kSnapshotEnvelope, static_cast<uint8_t>(kind), payload);
}

StatusOr<std::string_view> UnwrapSnapshot(std::string_view bytes,
                                          SnapshotKind expected_kind) {
  uint8_t tag;
  IMPLISTAT_ASSIGN_OR_RETURN(std::string_view payload,
                             UnwrapEnvelope(kSnapshotEnvelope, bytes, &tag));
  if (tag != static_cast<uint8_t>(expected_kind)) {
    return Status::InvalidArgument(
        std::string("snapshot: kind mismatch: expected ") +
        SnapshotKindName(expected_kind) + ", found tag " +
        std::to_string(tag));
  }
  return payload;
}

StatusOr<SnapshotKind> PeekSnapshotKind(std::string_view bytes) {
  IMPLISTAT_ASSIGN_OR_RETURN(uint8_t tag,
                             PeekEnvelopeTag(kSnapshotEnvelope, bytes));
  return static_cast<SnapshotKind>(tag);
}

}  // namespace implistat
