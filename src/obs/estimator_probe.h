// The standard StreamProgressReporter probe: reads S / ~S / memory from
// any ImplicationEstimator and, when the estimator is a NipsCi ensemble,
// the tracked-itemset occupancy against the §4.6 budget.
//
// Header-only on purpose: it needs core headers (NipsCi), and keeping it
// out of the obs library avoids an obs -> core -> obs link cycle — only
// executables that already link both include this.

#ifndef IMPLISTAT_OBS_ESTIMATOR_PROBE_H_
#define IMPLISTAT_OBS_ESTIMATOR_PROBE_H_

#include "core/nips_ci_ensemble.h"
#include "obs/progress.h"

namespace implistat::obs {

inline ProgressStats ProbeEstimator(const ImplicationEstimator& estimator) {
  ProgressStats stats;
  stats.implication = estimator.EstimateImplicationCount();
  stats.non_implication = estimator.EstimateNonImplicationCount();
  stats.memory_bytes = estimator.MemoryBytes();
  stats.has_estimates = true;
  if (const auto* nips = dynamic_cast<const NipsCi*>(&estimator)) {
    stats.tracked_itemsets = nips->TrackedItemsets();
    stats.itemset_budget =
        static_cast<size_t>(nips->num_bitmaps()) *
        nips->bitmap(0).ItemBudget();
    stats.has_tracking = true;
  }
  return stats;
}

/// Probe bound to an estimator the caller keeps alive for the reporter's
/// lifetime.
inline StreamProgressReporter::Probe MakeEstimatorProbe(
    const ImplicationEstimator* estimator) {
  return [estimator] { return ProbeEstimator(*estimator); };
}

}  // namespace implistat::obs

#endif  // IMPLISTAT_OBS_ESTIMATOR_PROBE_H_
