// Delta snapshot shipping (src/delta/): the byte-identity contract.
//
// The whole subsystem rests on one invariant: applying a delta to a
// receiver that holds a byte-identical copy of the sender's baseline
// state reproduces the sender's current state byte-for-byte
// (SerializeState equality). Everything else — resyncs, epoch checks,
// compression — exists to detect when that precondition does not hold
// and fall back to a full snapshot instead of applying anything.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/nips_ci_ensemble.h"
#include "core/sliding.h"
#include "delta/codec.h"
#include "delta/delta.h"
#include "util/random.h"

namespace implistat {
namespace {

// ---------------------------------------------------------------------------
// Codec primitives.
// ---------------------------------------------------------------------------

TEST(DeltaCodecTest, MaskRoundTrip) {
  for (size_t n : {0u, 1u, 7u, 8u, 9u, 64u, 1000u}) {
    std::vector<bool> mask(n);
    Rng rng(n + 1);
    for (size_t i = 0; i < n; ++i) mask[i] = rng.Bernoulli(0.3);
    ByteWriter out;
    delta::EncodeMask(mask, &out);
    EXPECT_EQ(out.size(), (n + 7) / 8) << "n=" << n;
    ByteReader in(out.str());
    std::vector<bool> back;
    ASSERT_TRUE(delta::DecodeMask(&in, n, &back).ok()) << "n=" << n;
    EXPECT_EQ(back, mask) << "n=" << n;
    EXPECT_TRUE(in.AtEnd());
  }
}

TEST(DeltaCodecTest, MaskRejectsTruncationAndDirtyPadding) {
  std::vector<bool> mask(10, true);
  ByteWriter out;
  delta::EncodeMask(mask, &out);
  std::string bytes = out.str();

  ByteReader truncated(std::string_view(bytes).substr(0, 1));
  std::vector<bool> back;
  EXPECT_FALSE(delta::DecodeMask(&truncated, 10, &back).ok());

  // Set a padding bit beyond the 10 meaningful ones.
  std::string dirty = bytes;
  dirty[1] = static_cast<char>(dirty[1] | 0x80);
  ByteReader in(dirty);
  EXPECT_FALSE(delta::DecodeMask(&in, 10, &back).ok());
}

TEST(DeltaCodecTest, RleRoundTrip) {
  Rng rng(11);
  std::vector<std::string> inputs = {"", "a", std::string(500, '\0'),
                                     std::string(129, 'x')};
  std::string mixed;
  for (int i = 0; i < 400; ++i) {
    if (rng.Bernoulli(0.5)) {
      mixed.append(rng.Uniform(200), static_cast<char>(rng.Uniform(256)));
    } else {
      mixed.push_back(static_cast<char>(rng.Uniform(256)));
    }
  }
  inputs.push_back(mixed);
  for (const std::string& input : inputs) {
    std::string packed = delta::RleCompress(input);
    auto back = delta::RleDecompress(packed, input.size());
    ASSERT_TRUE(back.ok()) << "len=" << input.size();
    EXPECT_EQ(*back, input);
  }
  // Long runs compress hard.
  std::string zeros(500, '\0');
  EXPECT_LT(delta::RleCompress(zeros).size(), 10u);
}

TEST(DeltaCodecTest, RleRejectsCorruptStreams) {
  std::string input(100, '\0');
  input += "tail";
  std::string packed = delta::RleCompress(input);
  // Truncated stream.
  EXPECT_FALSE(
      delta::RleDecompress(std::string_view(packed).substr(0, 1), input.size())
          .ok());
  // Wrong expected size (both directions).
  EXPECT_FALSE(delta::RleDecompress(packed, input.size() - 1).ok());
  EXPECT_FALSE(delta::RleDecompress(packed, input.size() + 1).ok());
}

// ---------------------------------------------------------------------------
// Harness: a synthetic workload with implication noise (some itemsets
// switch partners, so cells keep settling and fringes keep moving).
// ---------------------------------------------------------------------------

ImplicationConditions Cond() {
  ImplicationConditions cond;
  cond.max_multiplicity = 1;
  cond.min_support = 2;
  cond.min_top_confidence = 1.0;
  cond.confidence_c = 1;
  return cond;
}

NipsCiOptions Opts() {
  NipsCiOptions options;
  options.num_bitmaps = 8;
  options.seed = 5;
  return options;
}

void Feed(ImplicationEstimator* est, uint64_t begin, uint64_t end) {
  for (uint64_t t = begin; t < end; ++t) {
    ItemsetKey a = t % 997;
    ItemsetKey b = (a % 5 == 0) ? 1 + t % 2 : 1;  // 20% violators
    est->Observe(a, b);
  }
}

std::string MustState(const ImplicationEstimator& est) {
  auto state = est.SerializeState();
  EXPECT_TRUE(state.ok()) << state.status().message();
  return *state;
}

// One maintenance round: ship a delta from `source` (epoch base -> next),
// apply it to `twin`, and require byte identity.
void ShipAndCheck(const ImplicationEstimator& source,
                  ImplicationEstimator* twin, uint64_t base, uint64_t next,
                  bool rle) {
  auto fragment = source.SerializeDelta(base, next);
  ASSERT_TRUE(fragment.ok()) << fragment.status().message();
  std::string delta_snapshot = WrapDeltaSnapshot(base, next, *fragment, rle);
  auto info = ApplyDeltaSnapshot(twin, delta_snapshot, base);
  ASSERT_TRUE(info.ok()) << info.status().message();
  EXPECT_EQ(info->base_epoch, base);
  EXPECT_EQ(info->new_epoch, next);
  EXPECT_EQ(MustState(*twin), MustState(source));
}

// ---------------------------------------------------------------------------
// Byte identity across delta chains, for every delta-capable kind.
// ---------------------------------------------------------------------------

struct DeltaKind {
  const char* name;
  std::unique_ptr<ImplicationEstimator> (*make)();
};

std::unique_ptr<ImplicationEstimator> MakeNips() {
  return std::make_unique<NipsCi>(Cond(), Opts());
}
std::unique_ptr<ImplicationEstimator> MakeSliding() {
  SlidingOptions options;
  options.window = 1000;
  options.stride = 100;
  options.estimator = Opts();
  return std::make_unique<SlidingNipsCi>(Cond(), options);
}

const DeltaKind kKinds[] = {{"nips_ci", MakeNips}};

TEST(DeltaShippingTest, ChainedDeltasStayByteIdentical) {
  for (const DeltaKind& kind : kKinds) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    Feed(source.get(), 0, 2000);

    // Receiver bootstraps from the epoch-1 full snapshot.
    auto materialized = MaterializeEstimator(MustState(*source));
    ASSERT_TRUE(materialized.ok()) << materialized.status().message();
    std::unique_ptr<ImplicationEstimator> twin = std::move(*materialized);
    source->NoteSnapshotEpoch(1);
    EXPECT_EQ(MustState(*twin), MustState(*source));

    // Ten polls, each shipping only the increment.
    uint64_t pos = 2000;
    for (uint64_t epoch = 1; epoch < 11; ++epoch) {
      Feed(source.get(), pos, pos + 350);
      pos += 350;
      ShipAndCheck(*source, twin.get(), epoch, epoch + 1,
                   /*rle=*/epoch % 2 == 0);
    }
  }
}

TEST(DeltaShippingTest, InterleavedFullAndDeltaPulls) {
  for (const DeltaKind& kind : kKinds) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    Feed(source.get(), 0, 1000);
    std::unique_ptr<ImplicationEstimator> twin;
    uint64_t held_epoch = 0;
    uint64_t pos = 1000;
    for (uint64_t epoch = 1; epoch <= 8; ++epoch) {
      if (epoch % 3 == 1 || twin == nullptr) {
        // Full pull: rebuild the twin from scratch, as a supervisor does
        // on bootstrap or resync.
        auto materialized = MaterializeEstimator(MustState(*source));
        ASSERT_TRUE(materialized.ok()) << materialized.status().message();
        twin = std::move(*materialized);
        source->NoteSnapshotEpoch(epoch);
      } else {
        ShipAndCheck(*source, twin.get(), held_epoch, epoch, /*rle=*/true);
      }
      held_epoch = epoch;
      EXPECT_EQ(MustState(*twin), MustState(*source));
      Feed(source.get(), pos, pos + 200);
      pos += 200;
    }
  }
}

// A delta is dramatically smaller than the full snapshot once the
// increment is small relative to accumulated state — the subsystem's
// reason to exist (quantified at fleet scale in bench/fleet_scale.cc).
TEST(DeltaShippingTest, DeltaIsSmallerThanFullSnapshot) {
  auto source = MakeNips();
  Feed(source.get(), 0, 20000);
  source->NoteSnapshotEpoch(1);
  Feed(source.get(), 20000, 20050);
  auto fragment = source->SerializeDelta(1, 2);
  ASSERT_TRUE(fragment.ok());
  std::string delta_snapshot = WrapDeltaSnapshot(1, 2, *fragment, true);
  std::string full = MustState(*source);
  EXPECT_LT(delta_snapshot.size() * 5, full.size())
      << "delta " << delta_snapshot.size() << "B vs full " << full.size()
      << "B";
}

// ---------------------------------------------------------------------------
// Resync triggers: every way the baseline precondition can break must
// surface as a refusal (and leave the receiver untouched), never as a
// partial apply.
// ---------------------------------------------------------------------------

TEST(DeltaShippingTest, UnknownBaselineEpochIsNotFound) {
  for (const DeltaKind& kind : kKinds) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    Feed(source.get(), 0, 500);
    auto fragment = source->SerializeDelta(7, 8);
    ASSERT_FALSE(fragment.ok());
    EXPECT_EQ(fragment.status().code(), StatusCode::kNotFound);
  }
}

TEST(DeltaShippingTest, RestartedEdgeForcesResync) {
  for (const DeltaKind& kind : kKinds) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    Feed(source.get(), 0, 500);
    source->NoteSnapshotEpoch(1);
    std::string checkpoint = MustState(*source);

    // Simulated crash/restart: a fresh process restores the checkpoint.
    // The stamp bookkeeping did not survive, so the old baseline must
    // not be honored — the supervisor resyncs with a full pull.
    auto restarted = kind.make();
    ASSERT_TRUE(restarted->RestoreState(checkpoint).ok());
    auto fragment = restarted->SerializeDelta(1, 2);
    ASSERT_FALSE(fragment.ok());
    EXPECT_EQ(fragment.status().code(), StatusCode::kNotFound);

    // After re-noting a fresh epoch, deltas work again.
    restarted->NoteSnapshotEpoch(2);
    Feed(restarted.get(), 500, 700);
    EXPECT_TRUE(restarted->SerializeDelta(2, 3).ok());
  }
}

TEST(DeltaShippingTest, MergeInvalidatesBaselines) {
  auto source = MakeNips();
  auto other = MakeNips();
  Feed(source.get(), 0, 500);
  Feed(other.get(), 500, 800);
  source->NoteSnapshotEpoch(1);
  ASSERT_TRUE(source->MergeFrom(*other).ok());
  auto fragment = source->SerializeDelta(1, 2);
  ASSERT_FALSE(fragment.ok());
  EXPECT_EQ(fragment.status().code(), StatusCode::kNotFound);
}

TEST(DeltaShippingTest, EpochMismatchRefusesWithoutMutation) {
  for (const DeltaKind& kind : kKinds) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    Feed(source.get(), 0, 1000);
    auto materialized = MaterializeEstimator(MustState(*source));
    ASSERT_TRUE(materialized.ok());
    std::unique_ptr<ImplicationEstimator> twin = std::move(*materialized);
    source->NoteSnapshotEpoch(1);
    Feed(source.get(), 1000, 1200);
    auto fragment = source->SerializeDelta(1, 2);
    ASSERT_TRUE(fragment.ok());
    std::string delta_snapshot = WrapDeltaSnapshot(1, 2, *fragment, false);

    std::string before = MustState(*twin);
    auto applied = ApplyDeltaSnapshot(twin.get(), delta_snapshot,
                                      /*expected_base_epoch=*/9);
    ASSERT_FALSE(applied.ok());
    EXPECT_EQ(applied.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(MustState(*twin), before);
  }
}

// A window has no delta protocol: it neither serves a patch nor applies
// one (a NIPS/CI fragment here), and the refused apply leaves it as it
// was.
TEST(DeltaShippingTest, CrossKindFragmentRefusedWithoutMutation) {
  auto nips_source = MakeNips();
  Feed(nips_source.get(), 0, 500);
  nips_source->NoteSnapshotEpoch(1);
  Feed(nips_source.get(), 500, 600);
  auto fragment = nips_source->SerializeDelta(1, 2);
  ASSERT_TRUE(fragment.ok());

  auto sliding = MakeSliding();
  Feed(sliding.get(), 0, 500);
  sliding->NoteSnapshotEpoch(1);
  Feed(sliding.get(), 500, 600);
  const std::string before = MustState(*sliding);
  EXPECT_EQ(sliding->SerializeDelta(1, 2).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(sliding->ApplyDelta(*fragment).code(), StatusCode::kUnimplemented);
  EXPECT_EQ(MustState(*sliding), before);
}

TEST(DeltaShippingTest, DesyncedBaselineRefusedWithoutMutation) {
  // Twin holds epoch-1 state, but the delta is built against epoch 2 —
  // a baseline the twin never saw. The estimator-level validation must
  // catch the drift (NipsCi: count bookkeeping; the envelope-level epoch
  // check is tested separately above).
  auto source = MakeNips();
  Feed(source.get(), 0, 1000);
  auto materialized = MaterializeEstimator(MustState(*source));
  ASSERT_TRUE(materialized.ok());
  std::unique_ptr<ImplicationEstimator> twin = std::move(*materialized);
  source->NoteSnapshotEpoch(1);
  Feed(source.get(), 1000, 2000);
  source->NoteSnapshotEpoch(2);
  Feed(source.get(), 2000, 2400);
  auto fragment = source->SerializeDelta(2, 3);
  ASSERT_TRUE(fragment.ok());

  std::string before = MustState(*twin);
  Status applied = twin->ApplyDelta(*fragment);
  if (!applied.ok()) {
    EXPECT_EQ(MustState(*twin), before);
  } else {
    // If the fragment happened to validate structurally, the result must
    // NOT be mistaken for the sender's state.
    EXPECT_NE(MustState(*twin), MustState(*source));
  }
}

TEST(DeltaShippingTest, UnsupportedKindIsUnimplemented) {
  auto source = MakeNips();
  auto fragment = source->SerializeDelta(0, 1);
  (void)fragment;  // NipsCi supports deltas; exercise a kind that doesn't.
  EXPECT_TRUE(KindSupportsDeltas(SnapshotKind::kNipsCi));
  EXPECT_FALSE(KindSupportsDeltas(SnapshotKind::kSlidingNipsCi));
  EXPECT_FALSE(KindSupportsDeltas(SnapshotKind::kExactCounter));
  auto sliding = MakeSliding();
  Feed(sliding.get(), 0, 300);
  EXPECT_EQ(MaterializeEstimator(MustState(*sliding)).status().code(),
            StatusCode::kUnimplemented);
}

// ---------------------------------------------------------------------------
// Two-level hierarchy: edge -> mid (delta-maintained twins) -> root.
// ---------------------------------------------------------------------------

TEST(DeltaShippingTest, HierarchyFoldsDeltasToSingleProcessAnswer) {
  // Two edges split one stream; a mid tier maintains a twin of each via
  // deltas; the root folds the twins. Because each twin is byte-identical
  // to its edge, the fold equals folding the edges directly — which the
  // merge contract makes equal to the single-process run.
  auto edge1 = MakeNips();
  auto edge2 = MakeNips();
  NipsCi single(Cond(), Opts());

  auto feed_split = [&](uint64_t begin, uint64_t end) {
    for (uint64_t t = begin; t < end; ++t) {
      ItemsetKey a = t % 997;
      ItemsetKey b = (a % 5 == 0) ? 1 + t % 2 : 1;
      single.Observe(a, b);
      (a % 2 == 0 ? edge1 : edge2)->Observe(a, b);
    }
  };

  feed_split(0, 3000);
  auto twin1 = MaterializeEstimator(MustState(*edge1));
  auto twin2 = MaterializeEstimator(MustState(*edge2));
  ASSERT_TRUE(twin1.ok() && twin2.ok());
  edge1->NoteSnapshotEpoch(1);
  edge2->NoteSnapshotEpoch(1);

  for (uint64_t epoch = 1; epoch < 5; ++epoch) {
    feed_split(3000 + (epoch - 1) * 500, 3000 + epoch * 500);
    ShipAndCheck(*edge1, twin1->get(), epoch, epoch + 1, /*rle=*/true);
    ShipAndCheck(*edge2, twin2->get(), epoch, epoch + 1, /*rle=*/true);
  }

  // Root fold from the delta-maintained twins.
  NipsCi root(Cond(), Opts());
  ASSERT_TRUE(root.MergeFrom(**twin1).ok());
  ASSERT_TRUE(root.MergeFrom(**twin2).ok());

  // Same fold from the edges directly — must be byte-identical.
  NipsCi direct(Cond(), Opts());
  ASSERT_TRUE(direct.MergeFrom(*edge1).ok());
  ASSERT_TRUE(direct.MergeFrom(*edge2).ok());
  EXPECT_EQ(MustState(root), MustState(direct));

  // And close to the single-process answer (merge tolerance, not a delta
  // property — the delta guarantee is the byte identity above).
  EXPECT_NEAR(root.EstimateImplicationCount(),
              single.EstimateImplicationCount(),
              single.EstimateImplicationCount() * 0.15 + 8);
}

}  // namespace
}  // namespace implistat
