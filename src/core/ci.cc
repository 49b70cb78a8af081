#include "core/ci.h"

#include <cmath>
#include <cstdint>

#include "sketch/fm_sketch.h"
#include "util/logging.h"

namespace implistat {

namespace {

CiEstimate Finish(double supported, double non_impl) {
  CiEstimate est;
  est.supported_distinct = supported;
  est.non_implication = non_impl;
  est.implication = supported - non_impl;
  if (est.implication < 0) est.implication = 0;
  return est;
}

struct RankSums {
  uint64_t support = 0;
  uint64_t non_implication = 0;
};

RankSums SumRanks(std::span<const Nips> bitmaps) {
  RankSums sums;
  for (const Nips& nips : bitmaps) {
    sums.support += static_cast<uint64_t>(nips.RSupport());
    sums.non_implication += static_cast<uint64_t>(nips.RNonImplication());
  }
  return sums;
}

}  // namespace

// Calibrated readout: invert the Poissonized expectation E[R̄](ν) (see
// sketch/fm_sketch.h). The classic asymptotic m/φ·2^R̄ formula carries
// load-dependent quantization bias at small per-bitmap loads, and the
// subtractive CI estimator would amplify the mismatch between its two
// terms' biases; the calibrated inverse is accurate across the range.
// Ranks are integers, so every readout is an integral rank sum over m
// (or m − 1 for a replicate): FmEnsembleReadout serves those from a
// shared table.
CiEstimate CiFromBitmap(const Nips& nips) {
  return CiFromEnsemble(std::span<const Nips>(&nips, 1));
}

CiEstimate CiFromEnsemble(std::span<const Nips> bitmaps) {
  IMPLISTAT_CHECK(!bitmaps.empty());
  const RankSums sums = SumRanks(bitmaps);
  const FmEnsembleReadout readout(bitmaps.size());
  const double m = static_cast<double>(bitmaps.size());
  return Finish(m * readout.Mean(sums.support),
                m * readout.Mean(sums.non_implication));
}

CiEstimate CiEnsembleStdError(std::span<const Nips> bitmaps) {
  CiEstimate se;  // zero-initialized fields double as the m < 2 answer
  const size_t m = bitmaps.size();
  if (m < 2) return se;
  const RankSums sums = SumRanks(bitmaps);
  const FmEnsembleReadout readout(m);
  const double dm = static_cast<double>(m);
  // The readout without bitmap i, rescaled from the (m−1)/m key share
  // the reduced ensemble saw back to the full stream. Its implication
  // term is the plain difference: R_F0sup >= R_~S in every bitmap, so no
  // replicate falls below 0 and none needs the estimate's clamp.
  auto replicate = [&](const Nips& left_out) {
    CiEstimate est;
    est.supported_distinct = dm * readout.LeaveOneOut(
        sums.support - static_cast<uint64_t>(left_out.RSupport()));
    est.non_implication = dm * readout.LeaveOneOut(
        sums.non_implication -
        static_cast<uint64_t>(left_out.RNonImplication()));
    est.implication = est.supported_distinct - est.non_implication;
    return est;
  };
  CiEstimate mean;
  for (const Nips& nips : bitmaps) {
    const CiEstimate est = replicate(nips);
    mean.supported_distinct += est.supported_distinct / dm;
    mean.non_implication += est.non_implication / dm;
    mean.implication += est.implication / dm;
  }
  double var_sup = 0, var_non = 0, var_impl = 0;
  for (const Nips& nips : bitmaps) {
    const CiEstimate est = replicate(nips);
    var_sup += (est.supported_distinct - mean.supported_distinct) *
               (est.supported_distinct - mean.supported_distinct);
    var_non += (est.non_implication - mean.non_implication) *
               (est.non_implication - mean.non_implication);
    var_impl += (est.implication - mean.implication) *
                (est.implication - mean.implication);
  }
  const double scale = (dm - 1) / dm;
  se.supported_distinct = std::sqrt(scale * var_sup);
  se.non_implication = std::sqrt(scale * var_non);
  se.implication = std::sqrt(scale * var_impl);
  return se;
}

double CiRawEstimate(const Nips& nips) {
  return std::pow(2.0, nips.RSupport()) -
         std::pow(2.0, nips.RNonImplication());
}

}  // namespace implistat
