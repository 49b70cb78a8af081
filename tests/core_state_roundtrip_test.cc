// Checkpoint equivalence: for every estimator kind, observing a prefix,
// serializing, restoring into a fresh instance and observing the suffix
// must be indistinguishable from observing the whole stream
// uninterrupted. The sampling baselines carry their PRNG state in the
// snapshot, so "indistinguishable" means exactly equal answers for every
// kind, and byte-identical re-serialization for the deterministic ones.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baseline/distinct_sampling.h"
#include "baseline/exact_counter.h"
#include "baseline/ilc.h"
#include "baseline/sticky_sampling.h"
#include "core/estimator.h"
#include "core/nips_ci_ensemble.h"
#include "core/sliding.h"

namespace implistat {
namespace {

ImplicationConditions TestConditions() {
  ImplicationConditions cond;
  cond.max_multiplicity = 2;
  cond.min_support = 2;
  cond.min_top_confidence = 0.9;
  cond.confidence_c = 1;
  return cond;
}

NipsCiOptions SmallEnsemble() {
  NipsCiOptions options;
  options.num_bitmaps = 8;
  options.seed = 7;
  return options;
}

// Every durable estimator kind under one factory so the equivalence
// check below runs uniformly. `name` keys the failure messages.
struct Kind {
  std::string name;
  std::unique_ptr<ImplicationEstimator> (*make)();
  // Whether two same-state instances re-serialize to identical bytes
  // (false for the hash-table kinds, whose iteration order may differ).
  bool byte_stable;
};

std::unique_ptr<ImplicationEstimator> MakeNips() {
  return std::make_unique<NipsCi>(TestConditions(), SmallEnsemble());
}
std::unique_ptr<ImplicationEstimator> MakeExact() {
  return std::make_unique<ExactImplicationCounter>(TestConditions());
}
std::unique_ptr<ImplicationEstimator> MakeDs() {
  DistinctSamplingOptions options;
  options.max_sample_entries = 64;
  options.per_value_bound = 8;
  options.seed = 9;
  return std::make_unique<DistinctSampling>(TestConditions(), options);
}
std::unique_ptr<ImplicationEstimator> MakeIlc() {
  IlcOptions options;
  options.epsilon = 0.05;
  return std::make_unique<Ilc>(TestConditions(), options);
}
std::unique_ptr<ImplicationEstimator> MakeIss() {
  StickySamplingOptions options;
  options.epsilon = 0.05;
  options.delta = 0.05;
  options.support = 0.05;
  options.seed = 11;
  return std::make_unique<ImplicationStickySampling>(TestConditions(),
                                                     options);
}
std::unique_ptr<ImplicationEstimator> MakeSliding() {
  SlidingOptions options;
  options.window = 512;
  options.stride = 64;
  options.estimator = SmallEnsemble();
  return std::make_unique<SlidingNipsCi>(TestConditions(), options);
}

const std::vector<Kind>& AllKinds() {
  static const std::vector<Kind> kinds = {
      {"nips_ci", MakeNips, true},
      {"exact", MakeExact, false},
      {"distinct_sampling", MakeDs, false},
      {"ilc", MakeIlc, false},
      {"iss", MakeIss, false},
      {"sliding_nips_ci", MakeSliding, true},
  };
  return kinds;
}

// Deterministic mixed stream: mostly single-b itemsets with a band of
// multi-b ones, so implications, non-implications and low-support tails
// all occur.
void Feed(ImplicationEstimator* est, uint64_t begin, uint64_t end) {
  for (uint64_t i = begin; i < end; ++i) {
    ItemsetKey a = i % 400;
    ItemsetKey b = (a % 10 == 0) ? (i % 3) : (a % 5);
    est->Observe(a, b);
  }
}

constexpr uint64_t kStream = 3000;
constexpr uint64_t kCut = 1300;

TEST(StateRoundtripTest, InterruptedEqualsUninterrupted) {
  for (const Kind& kind : AllKinds()) {
    SCOPED_TRACE(kind.name);
    std::unique_ptr<ImplicationEstimator> uninterrupted = kind.make();
    Feed(uninterrupted.get(), 0, kStream);

    std::unique_ptr<ImplicationEstimator> first = kind.make();
    Feed(first.get(), 0, kCut);
    auto snapshot = first->SerializeState();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();

    std::unique_ptr<ImplicationEstimator> resumed = kind.make();
    ASSERT_TRUE(resumed->RestoreState(*snapshot).ok());
    Feed(resumed.get(), kCut, kStream);

    EXPECT_DOUBLE_EQ(resumed->EstimateImplicationCount(),
                     uninterrupted->EstimateImplicationCount());
    EXPECT_DOUBLE_EQ(resumed->EstimateNonImplicationCount(),
                     uninterrupted->EstimateNonImplicationCount());
    EXPECT_DOUBLE_EQ(resumed->EstimateSupportedDistinct(),
                     uninterrupted->EstimateSupportedDistinct());
    if (kind.byte_stable) {
      auto resumed_bytes = resumed->SerializeState();
      auto full_bytes = uninterrupted->SerializeState();
      ASSERT_TRUE(resumed_bytes.ok());
      ASSERT_TRUE(full_bytes.ok());
      EXPECT_EQ(*resumed_bytes, *full_bytes);
    }
  }
}

TEST(StateRoundtripTest, RestoreReplacesPriorState) {
  for (const Kind& kind : AllKinds()) {
    SCOPED_TRACE(kind.name);
    std::unique_ptr<ImplicationEstimator> source = kind.make();
    Feed(source.get(), 0, kStream);
    auto snapshot = source->SerializeState();
    ASSERT_TRUE(snapshot.ok());

    // The target has seen a different stream; restore must overwrite it
    // completely, not merge.
    std::unique_ptr<ImplicationEstimator> target = kind.make();
    Feed(target.get(), 500, 900);
    ASSERT_TRUE(target->RestoreState(*snapshot).ok());
    EXPECT_DOUBLE_EQ(target->EstimateImplicationCount(),
                     source->EstimateImplicationCount());
    EXPECT_DOUBLE_EQ(target->EstimateNonImplicationCount(),
                     source->EstimateNonImplicationCount());
  }
}

// The paper's hierarchy (§3): nodes snapshot state, ship it upstream, and
// an aggregator folds it in — across its own restarts.
TEST(StateRoundtripTest, MergeAcrossRestart) {
  std::unique_ptr<ImplicationEstimator> node_a = MakeNips();
  std::unique_ptr<ImplicationEstimator> node_b = MakeNips();
  for (uint64_t i = 0; i < kStream; ++i) {
    ItemsetKey a = i % 400;
    ItemsetKey b = (a % 10 == 0) ? (i % 3) : (a % 5);
    (i % 2 == 0 ? node_a : node_b)->Observe(a, b);
  }

  // Aggregator 1 merges node A, checkpoints, and "crashes".
  std::unique_ptr<ImplicationEstimator> aggregator = MakeNips();
  ASSERT_TRUE(aggregator->MergeFrom(*node_a).ok());
  auto checkpoint = aggregator->SerializeState();
  ASSERT_TRUE(checkpoint.ok());

  // Aggregator 2 restores and finishes the job.
  std::unique_ptr<ImplicationEstimator> replacement = MakeNips();
  ASSERT_TRUE(replacement->RestoreState(*checkpoint).ok());
  ASSERT_TRUE(replacement->MergeFrom(*node_b).ok());

  // No restart: merge both nodes directly.
  std::unique_ptr<ImplicationEstimator> direct = MakeNips();
  ASSERT_TRUE(direct->MergeFrom(*node_a).ok());
  ASSERT_TRUE(direct->MergeFrom(*node_b).ok());

  auto replaced_bytes = replacement->SerializeState();
  auto direct_bytes = direct->SerializeState();
  ASSERT_TRUE(replaced_bytes.ok());
  ASSERT_TRUE(direct_bytes.ok());
  EXPECT_EQ(*replaced_bytes, *direct_bytes);
}

// MergeFrom folds only state of its own kind. Any other kind is refused
// with InvalidArgument, and the refused merge leaves the target's state
// byte-identical.
TEST(StateRoundtripTest, MergeFromAnotherKindIsRefusedUnchanged) {
  for (const Kind& target_kind : AllKinds()) {
    if (target_kind.name == "iss" || target_kind.name == "sliding_nips_ci") {
      continue;  // these kinds do not merge at all
    }
    for (const Kind& other_kind : AllKinds()) {
      if (other_kind.name == target_kind.name) continue;
      SCOPED_TRACE(target_kind.name + " <- " + other_kind.name);
      std::unique_ptr<ImplicationEstimator> target = target_kind.make();
      std::unique_ptr<ImplicationEstimator> other = other_kind.make();
      Feed(target.get(), 0, kCut);
      Feed(other.get(), kCut, kStream);
      auto before = target->SerializeState();
      ASSERT_TRUE(before.ok());
      EXPECT_EQ(target->MergeFrom(*other).code(),
                StatusCode::kInvalidArgument);
      auto after = target->SerializeState();
      ASSERT_TRUE(after.ok());
      EXPECT_EQ(*after, *before);
    }
  }
}

TEST(StateRoundtripTest, ExactCounterMergeFromMatchesUnion) {
  auto exact_a = std::make_unique<ExactImplicationCounter>(TestConditions());
  auto exact_b = std::make_unique<ExactImplicationCounter>(TestConditions());
  auto combined = std::make_unique<ExactImplicationCounter>(TestConditions());
  for (uint64_t i = 0; i < kStream; ++i) {
    ItemsetKey a = i % 400;
    ItemsetKey b = (a % 10 == 0) ? (i % 3) : (a % 5);
    (i % 2 == 0 ? *exact_a : *exact_b).Observe(a, b);
    combined->Observe(a, b);
  }
  ASSERT_TRUE(exact_a->MergeFrom(*exact_b).ok());
  EXPECT_DOUBLE_EQ(exact_a->EstimateImplicationCount(),
                   combined->EstimateImplicationCount());
  EXPECT_DOUBLE_EQ(exact_a->EstimateNonImplicationCount(),
                   combined->EstimateNonImplicationCount());
  EXPECT_DOUBLE_EQ(exact_a->EstimateSupportedDistinct(),
                   combined->EstimateSupportedDistinct());
}

TEST(StateRoundtripTest, StickySamplingSynopsisRoundTrips) {
  StickySamplingOptions options;
  options.epsilon = 0.05;
  options.delta = 0.05;
  options.support = 0.05;
  options.seed = 3;
  StickySampling uninterrupted(options);
  StickySampling first(options);
  for (uint64_t i = 0; i < 2000; ++i) {
    uninterrupted.Observe(i % 37);
    first.Observe(i % 37);
  }
  auto snapshot = first.SerializeState();
  ASSERT_TRUE(snapshot.ok());
  StickySampling resumed(options);
  ASSERT_TRUE(resumed.RestoreState(*snapshot).ok());
  // The PRNG state rides along, so the resumed synopsis makes the same
  // coin flips the uninterrupted one does.
  for (uint64_t i = 2000; i < 4000; ++i) {
    uninterrupted.Observe(i % 37);
    resumed.Observe(i % 37);
  }
  EXPECT_EQ(resumed.tuples_seen(), uninterrupted.tuples_seen());
  EXPECT_EQ(resumed.sampling_rate(), uninterrupted.sampling_rate());
  EXPECT_EQ(resumed.num_entries(), uninterrupted.num_entries());
  for (uint64_t key = 0; key < 37; ++key) {
    EXPECT_EQ(resumed.EstimatedCount(key), uninterrupted.EstimatedCount(key))
        << "key " << key;
  }
}

}  // namespace
}  // namespace implistat
