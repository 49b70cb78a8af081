// Dictionary coding of attribute values.
//
// Streams in this library carry dictionary-coded tuples: every attribute
// value is a dense ValueId. A ValueDictionary maintains the per-attribute
// string <-> id mapping for streams that originate from textual data (CSV,
// the Table 1 toy example); synthetic generators mint ids directly.

#ifndef IMPLISTAT_STREAM_VALUE_DICTIONARY_H_
#define IMPLISTAT_STREAM_VALUE_DICTIONARY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "stream/types.h"
#include "util/serde.h"
#include "util/status_or.h"

namespace implistat {

class ValueDictionary {
 public:
  /// Returns the id for `value`, inserting it if unseen.
  ValueId GetOrAdd(std::string_view value);

  /// Returns the id for `value` or NotFound.
  StatusOr<ValueId> Find(std::string_view value) const;

  /// Inverse lookup; id must be < size().
  const std::string& ValueOf(ValueId id) const;

  size_t size() const { return values_.size(); }

  /// Checkpoint wire format: values in id order (raw fields, no envelope —
  /// dictionaries travel inside a kValueDictionary blob or a
  /// kQueryEngineV2 snapshot). Deserialize rejects duplicate values, so ids round-trip
  /// exactly: ValueOf/Find on the restored dictionary answer as before.
  void SerializeTo(ByteWriter* out) const;
  static StatusOr<ValueDictionary> Deserialize(ByteReader* in);

 private:
  std::unordered_map<std::string, ValueId> index_;
  std::vector<std::string> values_;
};

/// Wraps the per-attribute dictionaries of a stream in a kValueDictionary
/// snapshot envelope (util/envelope.h) — the persistence fix for
/// dictionary-coded text streams: ids assigned by first appearance only
/// stay meaningful across restarts if the mapping itself is durable.
std::string SerializeValueDictionaries(
    const std::vector<ValueDictionary>& dictionaries);
StatusOr<std::vector<ValueDictionary>> RestoreValueDictionaries(
    std::string_view snapshot);

}  // namespace implistat

#endif  // IMPLISTAT_STREAM_VALUE_DICTIONARY_H_
