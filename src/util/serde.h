// Byte-level serialization primitives and the snapshot envelope.
//
// NIPS/CI sketches are mergeable (see core/nips.h), which makes them
// useful in the paper's distributed settings — sensor networks and router
// hierarchies aggregating summaries instead of raw streams (§1-2). These
// helpers give the sketches a compact wire format: little-endian fixed
// integers, LEB128 varints, IEEE doubles. Readers validate bounds and
// return Status instead of crashing on malformed input.
//
// Durable state (checkpoints shipped between processes or written to disk)
// additionally travels inside a self-describing envelope — magic, format
// version, estimator kind, payload length, CRC32C trailer — so a reader can
// reject truncation, bit-flips, version skew, and kind mismatch before it
// ever parses a payload byte. The envelope lives in util/envelope.h
// (included here for compatibility); see DESIGN.md §6 for the wire format.

#ifndef IMPLISTAT_UTIL_SERDE_H_
#define IMPLISTAT_UTIL_SERDE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "util/envelope.h"
#include "util/status.h"
#include "util/status_or.h"

namespace implistat {

class ByteWriter {
 public:
  void PutU8(uint8_t v) { out_.push_back(static_cast<char>(v)); }

  void PutU32(uint32_t v) { PutFixed(&v, sizeof(v)); }
  void PutU64(uint64_t v) { PutFixed(&v, sizeof(v)); }

  /// LEB128: compact for the small counters that dominate sketch state.
  void PutVarint64(uint64_t v);

  void PutDouble(double v) { PutFixed(&v, sizeof(v)); }

  void PutBool(bool v) { PutU8(v ? 1 : 0); }

  /// Raw bytes, no length prefix (caller must know the length on read).
  void PutBytes(std::string_view bytes) { out_.append(bytes); }

  /// Varint length followed by the bytes; pairs with ReadLengthPrefixed.
  void PutLengthPrefixed(std::string_view bytes) {
    PutVarint64(bytes.size());
    out_.append(bytes);
  }

  const std::string& str() const { return out_; }
  std::string Release() { return std::move(out_); }
  size_t size() const { return out_.size(); }

 private:
  void PutFixed(const void* data, size_t n) {
    out_.append(reinterpret_cast<const char*>(data), n);
  }

  // Little-endian assumed (checked in serde.cc for the build platform).
  std::string out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadVarint64(uint64_t* v);
  Status ReadDouble(double* v);
  Status ReadBool(bool* v);

  /// Reads exactly `n` raw bytes; the view aliases the reader's buffer.
  Status ReadBytes(size_t n, std::string_view* out);

  /// Reads a varint length then that many bytes (view into the buffer).
  Status ReadLengthPrefixed(std::string_view* out);

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  Status ReadFixed(void* out, size_t n);

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace implistat

#endif  // IMPLISTAT_UTIL_SERDE_H_
