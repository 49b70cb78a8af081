// CI — Counting Implications (Algorithm 2).
//
// Reads the bitmap(s) maintained by NIPS and turns the raw positions
// R_F0sup and R_~S into estimates:
//
//   F̂0_sup = 2^R_F0sup / φ,   ~Ŝ = 2^R_~S / φ,   Ŝ = F̂0_sup − ~Ŝ,
//
// with φ = 0.775351 the Flajolet–Martin correction. (Algorithm 2 line 9
// prints the uncorrected 2^R difference; applying φ to both terms — as the
// paper's reliance on [14]'s estimator implies — keeps the difference
// unbiased, and RawEstimate() preserves the literal form for comparison.)
// For an ensemble of m bitmaps each term is m times the calibrated
// per-bitmap load whose expected rank is the mean rank (FmInvertMeanRank,
// read from a per-m table; see sketch/fm_sketch.h).

#ifndef IMPLISTAT_CORE_CI_H_
#define IMPLISTAT_CORE_CI_H_

#include <span>

#include "core/nips.h"

namespace implistat {

struct CiEstimate {
  double supported_distinct = 0;  // F̂0_sup(A)
  double non_implication = 0;     // ~Ŝ
  double implication = 0;         // Ŝ = F̂0_sup − ~Ŝ, clamped at 0
};

/// Estimates from a single NIPS bitmap.
CiEstimate CiFromBitmap(const Nips& nips);

/// Estimates from an ensemble of bitmaps via stochastic averaging.
CiEstimate CiFromEnsemble(std::span<const Nips> bitmaps);

/// Leave-one-bitmap-out jackknife standard errors for the ensemble
/// readout: each field holds the 1σ error bar of the corresponding
/// CiFromEnsemble estimate. Stochastic averaging routes ~1/m of the keys
/// to each bitmap, so every leave-one-out readout is rescaled by m/(m−1)
/// before the usual jackknife variance; the implication replicates are
/// the plain differences F̂0_sup − ~Ŝ. All-zero for m < 2 (a single
/// bitmap carries no dispersion information). Allocates nothing beyond
/// the shared readout table, built once per m (sketch/fm_sketch.h).
CiEstimate CiEnsembleStdError(std::span<const Nips> bitmaps);

/// The literal Algorithm 2 return value, 2^R_F0sup − 2^R_~S, without the φ
/// correction (single bitmap).
double CiRawEstimate(const Nips& nips);

}  // namespace implistat

#endif  // IMPLISTAT_CORE_CI_H_
