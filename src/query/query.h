// Implication query specification.
//
// Expresses the paper's general query (§3)
//
//   SELECT COUNT(DISTINCT A) FROM R WHERE A implies B
//
// with the full Table 2 taxonomy:
//   * distinct count        — empty B (degenerates to F0 of A),
//   * one-to-one/one-to-many — via max_multiplicity / confidence_c,
//   * with noise            — via min_top_confidence < 1,
//   * complement            — count non-implications instead,
//   * conditional           — via a WHERE predicate on the tuple,
//   * compound              — by putting the grouping attribute into A
//                             (e.g. "one target per service" makes
//                             A = {Source, Service}).

#ifndef IMPLISTAT_QUERY_QUERY_H_
#define IMPLISTAT_QUERY_QUERY_H_

#include <memory>
#include <string>
#include <vector>

#include "baseline/distinct_sampling.h"
#include "baseline/ilc.h"
#include "baseline/sticky_sampling.h"
#include "core/conditions.h"
#include "core/estimator.h"
#include "core/nips_ci_ensemble.h"
#include "query/predicate.h"
#include "stream/attribute_set.h"

namespace implistat {

enum class EstimatorKind {
  kNipsCi,            // the paper's algorithm (default)
  kExact,             // hash-table ground truth
  kDistinctSampling,  // DS baseline
  kIlc,               // Implication Lossy Counting baseline
  kIss,               // Implication Sticky Sampling baseline
};

struct EstimatorConfig {
  EstimatorKind kind = EstimatorKind::kNipsCi;
  /// Sliding window in tuples; 0 = lifetime counts (§3.2). Windowed
  /// queries require the NIPS/CI estimator.
  uint64_t window = 0;
  /// Window granularity; defaults to window/8 (rounded up) when 0.
  uint64_t stride = 0;
  NipsCiOptions nips;
  DistinctSamplingOptions ds;
  IlcOptions ilc;
  StickySamplingOptions iss;

  /// Checkpoint wire format (raw fields, no envelope — configs only travel
  /// inside a kQueryEngineV2 snapshot). Deserialize re-validates every field
  /// an estimator constructor would assert on, so a corrupt-but-CRC-valid
  /// checkpoint yields a Status instead of an abort.
  void SerializeTo(ByteWriter* out) const;
  static StatusOr<EstimatorConfig> Deserialize(ByteReader* in);
};

struct ImplicationQuerySpec {
  /// Attribute names of A (the counted side) and B (the implied side);
  /// resolved against the engine's schema. Must be disjoint and nonempty.
  std::vector<std::string> a_attributes;
  std::vector<std::string> b_attributes;
  ImplicationConditions conditions;
  /// Optional WHERE filter; null means unconditional.
  std::shared_ptr<const Predicate> where;
  /// Count non-implications (~S) instead of implications (S).
  bool complement = false;
  EstimatorConfig estimator;
  /// Optional human-readable label for reports. Registration rejects a
  /// non-empty label that another active query already carries.
  std::string label;
  /// Lets the engine answer this query by entailment bounds from
  /// already-maintained synopses (query/entailment.h) instead of
  /// allocating a dedicated estimator, when a sound derivation exists.
  /// Derived answers are flagged and carry [lower, upper] bounds rather
  /// than a byte-identical estimate, so this is opt-in. Not part of the
  /// spec wire format — it rides in the query record's flag byte of the
  /// kQueryEngineV2 checkpoint container instead (see engine.cc).
  bool allow_derived = false;

  /// Checkpoint wire format for the whole spec, WHERE clause included.
  /// `num_attributes` is the schema width the restored query will run
  /// over; predicate attribute indices are validated against it.
  void SerializeTo(ByteWriter* out) const;
  static StatusOr<ImplicationQuerySpec> Deserialize(ByteReader* in,
                                                    int num_attributes);
};

/// Builds the configured estimator. Fails for invalid combinations
/// (e.g. a window with a non-NIPS estimator).
StatusOr<std::unique_ptr<ImplicationEstimator>> MakeEstimator(
    const ImplicationConditions& conditions, const EstimatorConfig& config);

}  // namespace implistat

#endif  // IMPLISTAT_QUERY_QUERY_H_
