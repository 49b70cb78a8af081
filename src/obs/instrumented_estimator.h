#ifndef IMPLISTAT_OBS_INSTRUMENTED_ESTIMATOR_H_
#define IMPLISTAT_OBS_INSTRUMENTED_ESTIMATOR_H_

#include "core/estimator.h"

namespace implistat::obs {

// Kept only because perfbench/ledger.cc includes this header and calls it;
// the next change to the benchmark deletes both.
inline const ImplicationEstimator* Unwrap(const ImplicationEstimator* est) {
  return est;
}

}  // namespace implistat::obs

#endif  // IMPLISTAT_OBS_INSTRUMENTED_ESTIMATOR_H_
