// StreamProgressReporter: reporting cadence, line contents, batch ticks
// and the gauge refresh. Lines are captured in a stringstream; the
// format checks are substring-based so rate/elapsed (wall-clock
// dependent) stay unasserted.

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/estimator_probe.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "query/engine.h"

namespace implistat::obs {
namespace {

std::vector<std::string> Lines(const std::ostringstream& out) {
  std::vector<std::string> lines;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

ProgressStats FixedStats() {
  ProgressStats stats;
  stats.implication = 812.5;
  stats.non_implication = 190.25;
  stats.tracked_itemsets = 3;
  stats.itemset_budget = 10;
  stats.memory_bytes = 4096;
  stats.has_estimates = true;
  stats.has_tracking = true;
  return stats;
}

TEST(ProgressTest, ReportsEveryNTuplesAndOnFinish) {
  std::ostringstream out;
  StreamProgressOptions options;
  options.every = 2;
  options.out = &out;
  options.tag = "test";
  StreamProgressReporter reporter(options, FixedStats);
  for (int i = 0; i < 5; ++i) reporter.Tick();
  EXPECT_EQ(reporter.tuples_seen(), 5u);
  reporter.Finish();

  std::vector<std::string> lines = Lines(out);
  ASSERT_EQ(lines.size(), 3u);  // at 2, at 4, and the final
  EXPECT_NE(lines[0].find("[test] tuples=2 "), std::string::npos);
  EXPECT_NE(lines[1].find("[test] tuples=4 "), std::string::npos);
  EXPECT_NE(lines[2].find("[test] done: tuples=5 "), std::string::npos);
  EXPECT_NE(lines[2].find(" elapsed="), std::string::npos);
  for (const std::string& line : lines) {
    EXPECT_NE(line.find(" rate="), std::string::npos);
    EXPECT_NE(line.find(" S=812.5"), std::string::npos);
    EXPECT_NE(line.find(" ~S=190.2"), std::string::npos);
    EXPECT_NE(line.find(" tracked=3/10"), std::string::npos);
    EXPECT_NE(line.find(" mem=4096B"), std::string::npos);
  }
}

TEST(ProgressTest, EveryZeroReportsOnlyOnFinish) {
  std::ostringstream out;
  StreamProgressOptions options;
  options.every = 0;
  options.out = &out;
  StreamProgressReporter reporter(options, FixedStats);
  for (int i = 0; i < 1000; ++i) reporter.Tick();
  EXPECT_EQ(out.str(), "");
  reporter.Finish();
  ASSERT_EQ(Lines(out).size(), 1u);
  EXPECT_NE(out.str().find("done: tuples=1000 "), std::string::npos);
}

TEST(ProgressTest, TickBatchCrossingABoundaryReportsOnce) {
  std::ostringstream out;
  StreamProgressOptions options;
  options.every = 100;
  options.out = &out;
  StreamProgressReporter reporter(options, nullptr);
  reporter.TickBatch(350);  // crosses 100, 200, 300 — one report
  EXPECT_EQ(reporter.tuples_seen(), 350u);
  ASSERT_EQ(Lines(out).size(), 1u);
  EXPECT_NE(out.str().find("tuples=350 "), std::string::npos);
  reporter.TickBatch(49);  // stays inside the 300..400 interval
  EXPECT_EQ(Lines(out).size(), 1u);
}

TEST(ProgressTest, NullProbeOmitsEstimatesAndTracking) {
  std::ostringstream out;
  StreamProgressOptions options;
  options.every = 1;
  options.out = &out;
  StreamProgressReporter reporter(options, nullptr);
  reporter.Tick();
  std::string line = out.str();
  EXPECT_NE(line.find("tuples=1 "), std::string::npos);
  EXPECT_EQ(line.find(" S="), std::string::npos);
  EXPECT_EQ(line.find(" tracked="), std::string::npos);
  EXPECT_EQ(line.find(" mem="), std::string::npos);
}

TEST(ProgressTest, NegativeEstimatesAreOmittedFromTheLine) {
  std::ostringstream out;
  StreamProgressOptions options;
  options.every = 1;
  options.out = &out;
  StreamProgressReporter reporter(options, [] {
    ProgressStats stats;
    stats.has_estimates = true;  // but both estimates are "cannot answer"
    stats.has_tracking = true;   // unbounded: budget 0
    stats.tracked_itemsets = 7;
    return stats;
  });
  reporter.Tick();
  std::string line = out.str();
  EXPECT_EQ(line.find(" S="), std::string::npos);
  EXPECT_EQ(line.find(" ~S="), std::string::npos);
  EXPECT_NE(line.find(" tracked=7"), std::string::npos);
  EXPECT_EQ(line.find("tracked=7/"), std::string::npos);  // no budget part
}

TEST(ProgressTest, ReportsRefreshTheGlobalGauges) {
  StreamProgressOptions options;
  std::ostringstream out;
  options.every = 1;
  options.out = &out;
  StreamProgressReporter reporter(options, FixedStats);
  reporter.Tick();
  if constexpr (kMetricsEnabled) {
    MetricsRegistry& reg = MetricsRegistry::Global();
    EXPECT_EQ(reg.GetGauge("nips_tracked_itemsets")->Value(), 3);
    EXPECT_EQ(reg.GetGauge("nips_itemset_budget")->Value(), 10);
    EXPECT_EQ(reg.GetGauge("implistat_estimator_memory_bytes")->Value(),
              4096);
  }
}

TEST(ProgressProbeTest, ProbeReadsANipsCiEstimator) {
  ImplicationConditions conditions;
  conditions.max_multiplicity = 1;
  conditions.min_support = 1;
  conditions.min_top_confidence = 1.0;
  NipsCiOptions options;
  options.num_bitmaps = 8;
  options.nips.fringe_size = 4;
  NipsCi nips(conditions, options);
  for (uint64_t i = 0; i < 2000; ++i) {
    nips.Observe(ItemsetKey{i % 301}, ItemsetKey{i % 7});
  }
  ProgressStats stats = ProbeEstimator(nips);
  EXPECT_TRUE(stats.has_estimates);
  EXPECT_TRUE(stats.has_tracking);
  EXPECT_EQ(stats.tracked_itemsets, nips.TrackedItemsets());
  // 8 bitmaps x capacity_factor x (2^4 - 1) per bitmap.
  EXPECT_EQ(stats.itemset_budget,
            8u * nips.bitmap(0).ItemBudget());
  EXPECT_GT(stats.itemset_budget, 0u);
  EXPECT_EQ(stats.memory_bytes, nips.MemoryBytes());
  EXPECT_GE(stats.implication, 0.0);
  EXPECT_GE(stats.non_implication, 0.0);
}

// implistat_cli's --metrics-every path: the probe reads the estimator the
// engine serves, which is the NipsCi itself, so the occupancy line shows
// the §4.6 budget at the default m = 64, F = 4, capacity factor 2.
TEST(ProgressProbeTest, ProbeReadsAnEngineHeldNipsCi) {
  QueryEngine engine(Schema({{"Source", 512}, {"Destination", 16}}));
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  const QueryId id = engine.Register(spec).value();
  // Every source keeps one destination: all implications, so the fringe
  // keeps tracking itemsets.
  for (uint64_t i = 0; i < 5000; ++i) {
    const std::vector<ValueId> row = {static_cast<ValueId>(i % 509),
                                      static_cast<ValueId>(i % 509 % 13)};
    engine.ObserveTuple(TupleRef(row.data(), row.size()));
  }
  const ImplicationEstimator* served = engine.Estimator(id).value();
  const auto* nips = dynamic_cast<const NipsCi*>(served);
  ASSERT_NE(nips, nullptr);
  ProgressStats stats = ProbeEstimator(*served);
  EXPECT_TRUE(stats.has_tracking);
  EXPECT_EQ(stats.itemset_budget, 64u * 2u * 15u);
  EXPECT_EQ(stats.tracked_itemsets, nips->TrackedItemsets());
  EXPECT_GT(stats.tracked_itemsets, 0u);
  EXPECT_EQ(stats.memory_bytes, nips->MemoryBytes());
}

}  // namespace
}  // namespace implistat::obs
