#include "datagen/dataset_one.h"

#include <vector>

#include "util/logging.h"
#include "util/random.h"

namespace implistat {

namespace {

// Appends `count` copies of (a, b) to the flat (A, B) tuple buffer.
void Emit(std::vector<ValueId>* flat, ValueId a, ValueId b, uint64_t count) {
  for (uint64_t i = 0; i < count; ++i) {
    flat->push_back(a);
    flat->push_back(b);
  }
}

}  // namespace

DatasetOne GenerateDatasetOne(const DatasetOneParams& params) {
  IMPLISTAT_CHECK(params.implied_count <= params.cardinality_a)
      << "imposed count S cannot exceed |A|";
  IMPLISTAT_CHECK(params.c >= 1);
  Rng rng(SplitMix64(params.seed + 0xd5e1));

  const uint64_t noise_total = params.cardinality_a - params.implied_count;
  // Three noise kinds, each 1/3 of the noise itemsets; the remainder goes
  // to the low-support kind (which affects neither S nor ~S).
  const uint64_t kind1 = noise_total / 3;  // confidence violators
  const uint64_t kind2 = noise_total / 3;  // multiplicity violators
  const uint64_t kind3 = noise_total - kind1 - kind2;  // below support

  std::vector<ValueId> flat;
  ValueId next_a = 0;
  ValueId next_b = 0;

  // Step 1: S qualifying itemsets (a → B holds).
  for (uint64_t s = 0; s < params.implied_count; ++s) {
    ValueId a = next_a++;
    uint64_t u = rng.UniformRange(1, params.c);
    for (uint64_t j = 0; j < u; ++j) {
      Emit(&flat, a, next_b++, params.pair_support);
    }
    for (uint32_t j = 0; j < params.qualifying_extra_b; ++j) {
      Emit(&flat, a, next_b++, 1);
    }
  }

  // Step 2: confidence-noise itemsets — satisfy support (and the tracked
  // multiplicity) but fail the top-c confidence.
  for (uint64_t s = 0; s < kind1; ++s) {
    ValueId a = next_a++;
    uint64_t u = rng.UniformRange(1, params.c);
    for (uint64_t j = 0; j < u; ++j) {
      Emit(&flat, a, next_b++, params.pair_support);
    }
    for (uint32_t j = 0; j < params.conf_noise_extra_b; ++j) {
      Emit(&flat, a, next_b++, params.conf_noise_tuples_per_b);
    }
  }

  // Step 3: multiplicity-noise itemsets — support spread thinly over
  // u ∈ [c+1, c+10] distinct b's, so the top-c confidence ≈ c/u < γ.
  for (uint64_t s = 0; s < kind2; ++s) {
    ValueId a = next_a++;
    uint64_t u = rng.UniformRange(params.c + 1, params.c + 10);
    std::vector<ValueId> bs;
    bs.reserve(u);
    for (uint64_t j = 0; j < u; ++j) bs.push_back(next_b++);
    for (uint64_t t = 0; t < params.pair_support; ++t) {
      Emit(&flat, a, bs[t % u], 1);
    }
  }

  // Step 4: below-support itemsets — one pair, too few tuples to matter.
  for (uint64_t s = 0; s < kind3; ++s) {
    Emit(&flat, next_a++, next_b++, params.low_support_tuples);
  }

  // Shuffle tuples (Fisher–Yates over rows); §6.1 shuffles the output file
  // to demonstrate order independence.
  const size_t rows = flat.size() / 2;
  for (size_t i = rows; i-- > 1;) {
    size_t j = rng.Uniform(i + 1);
    std::swap(flat[2 * i], flat[2 * j]);
    std::swap(flat[2 * i + 1], flat[2 * j + 1]);
  }

  DatasetOne out;
  Schema schema;
  IMPLISTAT_CHECK(schema.AddAttribute("A", next_a).ok());
  IMPLISTAT_CHECK(schema.AddAttribute("B", next_b).ok());
  out.schema = schema;
  out.stream = VectorStream(schema, std::move(flat));
  out.conditions.max_multiplicity = params.c;
  out.conditions.min_support = params.pair_support;
  out.conditions.min_top_confidence = 0.90;
  out.conditions.confidence_c = params.c;
  out.conditions.strict_multiplicity = false;
  out.true_implication_count = params.implied_count;
  out.true_non_implication_count = kind1 + kind2;
  out.true_supported_distinct = params.implied_count + kind1 + kind2;
  return out;
}

}  // namespace implistat
