// Failure injection: malformed and adversarial inputs must produce
// Status errors (or valid parses), never crashes or hangs. These are
// deterministic pseudo-fuzzers — seeds fixed, thousands of cases each.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baseline/distinct_sampling.h"
#include "baseline/exact_counter.h"
#include "baseline/ilc.h"
#include "baseline/lossy_counting.h"
#include "baseline/sticky_sampling.h"
#include "core/nips_ci_ensemble.h"
#include "core/sliding.h"
#include "delta/delta.h"
#include "query/engine.h"
#include "query/parser.h"
#include "stream/csv_io.h"
#include "util/envelope.h"
#include "util/random.h"
#include "util/serde.h"

namespace implistat {
namespace {

TEST(ParserFuzzTest, MutatedQueriesNeverCrash) {
  const std::string base =
      "SELECT COUNT(DISTINCT Source, Service) FROM traffic "
      "WHERE NOT Source, Service IMPLIES Destination "
      "AND Time = 'Morning' AND Hour != 3 "
      "WITH K = 2, SUPPORT = 5, CONFIDENCE = 0.8, C = 1, STRICT = false, "
      "WINDOW = 1000, STRIDE = 250, ESTIMATOR = DS";
  ASSERT_TRUE(ParseImplicationQuery(base).ok());

  Rng rng(1);
  const char alphabet[] =
      " abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      "(),='!._-";
  for (int iter = 0; iter < 5000; ++iter) {
    std::string mutated = base;
    int edits = 1 + static_cast<int>(rng.Uniform(4));
    for (int e = 0; e < edits; ++e) {
      size_t pos = rng.Uniform(mutated.size());
      switch (rng.Uniform(3)) {
        case 0:  // replace
          mutated[pos] = alphabet[rng.Uniform(sizeof(alphabet) - 1)];
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // insert
          mutated.insert(pos, 1,
                         alphabet[rng.Uniform(sizeof(alphabet) - 1)]);
      }
      if (mutated.empty()) break;
    }
    // Must return (ok or error), not crash; the value is irrelevant.
    (void)ParseImplicationQuery(mutated);
  }
}

TEST(ParserFuzzTest, RandomGarbageNeverCrashes) {
  Rng rng(2);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string garbage;
    size_t len = rng.Uniform(120);
    for (size_t i = 0; i < len; ++i) {
      garbage.push_back(static_cast<char>(rng.Uniform(96) + 32));
    }
    (void)ParseImplicationQuery(garbage);
  }
}

TEST(SerdeFuzzTest, RandomBytesNeverCrashDeserialize) {
  Rng rng(3);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string bytes;
    size_t len = rng.Uniform(300);
    for (size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.Next64() & 0xff));
    }
    auto result = NipsCi::Deserialize(bytes);
    // Random bytes are astronomically unlikely to be a valid sketch.
    EXPECT_FALSE(result.ok());
  }
}

TEST(SerdeFuzzTest, BitflippedValidSketchNeverCrashes) {
  ImplicationConditions cond;
  cond.max_multiplicity = 2;
  cond.min_support = 3;
  cond.min_top_confidence = 0.9;
  cond.confidence_c = 1;
  NipsCiOptions opts;
  opts.num_bitmaps = 8;
  opts.seed = 4;
  NipsCi nips(cond, opts);
  for (ItemsetKey a = 0; a < 500; ++a) {
    nips.Observe(a, a % 7);
    nips.Observe(a, a % 5);
  }
  const std::string valid = nips.Serialize();
  Rng rng(5);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string corrupted = valid;
    int flips = 1 + static_cast<int>(rng.Uniform(8));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(corrupted.size());
      corrupted[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    }
    auto result = NipsCi::Deserialize(corrupted);
    if (result.ok()) {
      // A surviving corruption must still yield a usable sketch.
      (void)result->EstimateImplicationCount();
    }
  }
}

// ---------------------------------------------------------------------------
// Durable-state robustness: every estimator kind's RestoreState must turn
// arbitrary corruption into a clean Status — no crash, no hang, and no
// partial mutation of the restore target.
// ---------------------------------------------------------------------------

ImplicationConditions StateCond() {
  ImplicationConditions cond;
  cond.max_multiplicity = 2;
  cond.min_support = 2;
  cond.min_top_confidence = 0.9;
  cond.confidence_c = 1;
  return cond;
}

struct DurableKind {
  std::string name;
  std::unique_ptr<ImplicationEstimator> (*make)();
};

const std::vector<DurableKind>& DurableKinds() {
  static const std::vector<DurableKind> kinds = {
      {"nips_ci",
       [] {
         NipsCiOptions o;
         o.num_bitmaps = 8;
         o.seed = 21;
         return std::unique_ptr<ImplicationEstimator>(
             std::make_unique<NipsCi>(StateCond(), o));
       }},
      {"exact",
       [] {
         return std::unique_ptr<ImplicationEstimator>(
             std::make_unique<ExactImplicationCounter>(StateCond()));
       }},
      {"distinct_sampling",
       [] {
         DistinctSamplingOptions o;
         o.max_sample_entries = 48;
         o.per_value_bound = 6;
         o.seed = 23;
         return std::unique_ptr<ImplicationEstimator>(
             std::make_unique<DistinctSampling>(StateCond(), o));
       }},
      {"ilc",
       [] {
         IlcOptions o;
         o.epsilon = 0.05;
         return std::unique_ptr<ImplicationEstimator>(
             std::make_unique<Ilc>(StateCond(), o));
       }},
      {"iss",
       [] {
         StickySamplingOptions o;
         o.epsilon = 0.05;
         o.delta = 0.05;
         o.support = 0.05;
         o.seed = 25;
         return std::unique_ptr<ImplicationEstimator>(
             std::make_unique<ImplicationStickySampling>(StateCond(), o));
       }},
      {"sliding_nips_ci",
       [] {
         SlidingOptions o;
         o.window = 256;
         o.stride = 32;
         o.estimator.num_bitmaps = 8;
         o.estimator.seed = 21;
         return std::unique_ptr<ImplicationEstimator>(
             std::make_unique<SlidingNipsCi>(StateCond(), o));
       }},
  };
  return kinds;
}

void FeedState(ImplicationEstimator* est, uint64_t begin, uint64_t end) {
  for (uint64_t i = begin; i < end; ++i) {
    ItemsetKey a = i % 150;
    est->Observe(a, (a % 9 == 0) ? (i % 3) : (a % 4));
  }
}

// Restoring a corrupt snapshot must fail cleanly AND leave the target
// exactly as it was — the decode-into-temporary contract.
void ExpectRejectedWithoutMutation(ImplicationEstimator* target,
                                   std::string_view corrupt,
                                   double baseline_estimate,
                                   const char* what) {
  Status status = target->RestoreState(corrupt);
  EXPECT_FALSE(status.ok()) << what << " unexpectedly restored";
  EXPECT_EQ(target->EstimateImplicationCount(), baseline_estimate)
      << what << " mutated the target on failure";
}

TEST(StateFuzzTest, EveryKindRoundTripsItsOwnSnapshot) {
  for (const DurableKind& kind : DurableKinds()) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    FeedState(source.get(), 0, 1200);
    auto snapshot = source->SerializeState();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status();
    auto target = kind.make();
    ASSERT_TRUE(target->RestoreState(*snapshot).ok());
    EXPECT_DOUBLE_EQ(target->EstimateImplicationCount(),
                     source->EstimateImplicationCount());
  }
}

TEST(StateFuzzTest, TruncatedSnapshotsRejectedCleanly) {
  for (const DurableKind& kind : DurableKinds()) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    FeedState(source.get(), 0, 1200);
    auto snapshot = source->SerializeState();
    ASSERT_TRUE(snapshot.ok());
    auto target = kind.make();
    FeedState(target.get(), 300, 500);
    const double baseline = target->EstimateImplicationCount();
    // Every short length near the envelope header, then a spread of cuts
    // through the payload.
    const size_t step = snapshot->size() / 97 + 1;
    for (size_t len = 0; len < snapshot->size(); len += (len < 32 ? 1 : step)) {
      ExpectRejectedWithoutMutation(target.get(), snapshot->substr(0, len),
                                    baseline, "truncation");
    }
  }
}

TEST(StateFuzzTest, BitflippedSnapshotsNeverCrashOrPartiallyApply) {
  Rng rng(31);
  for (const DurableKind& kind : DurableKinds()) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    FeedState(source.get(), 0, 1200);
    auto snapshot = source->SerializeState();
    ASSERT_TRUE(snapshot.ok());
    auto target = kind.make();
    FeedState(target.get(), 300, 500);
    double baseline = target->EstimateImplicationCount();
    for (int iter = 0; iter < 400; ++iter) {
      std::string corrupted = *snapshot;
      int flips = 1 + static_cast<int>(rng.Uniform(6));
      for (int f = 0; f < flips; ++f) {
        size_t pos = rng.Uniform(corrupted.size());
        corrupted[pos] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      // CRC32C catches essentially all of these; any that slip through
      // must still decode into a usable estimator, and any rejection must
      // leave the target untouched.
      Status status = target->RestoreState(corrupted);
      if (status.ok()) {
        (void)target->EstimateImplicationCount();
        ASSERT_TRUE(target->RestoreState(*snapshot).ok());
        baseline = target->EstimateImplicationCount();
      } else {
        EXPECT_EQ(target->EstimateImplicationCount(), baseline);
      }
    }
  }
}

TEST(StateFuzzTest, RandomGarbageRejectedByEveryKind) {
  Rng rng(37);
  for (const DurableKind& kind : DurableKinds()) {
    SCOPED_TRACE(kind.name);
    auto target = kind.make();
    FeedState(target.get(), 0, 200);
    const double baseline = target->EstimateImplicationCount();
    for (int iter = 0; iter < 300; ++iter) {
      std::string garbage;
      size_t len = rng.Uniform(200);
      for (size_t i = 0; i < len; ++i) {
        garbage.push_back(static_cast<char>(rng.Next64() & 0xff));
      }
      ExpectRejectedWithoutMutation(target.get(), garbage, baseline,
                                    "random garbage");
    }
  }
}

TEST(StateFuzzTest, WrongKindSnapshotsRejected) {
  // Pre-serialize one snapshot per kind, then try every (snapshot, target)
  // pair. Only matching kinds may restore.
  std::vector<std::string> snapshots;
  for (const DurableKind& kind : DurableKinds()) {
    auto source = kind.make();
    FeedState(source.get(), 0, 600);
    auto snapshot = source->SerializeState();
    ASSERT_TRUE(snapshot.ok()) << kind.name;
    snapshots.push_back(std::move(*snapshot));
  }
  const auto& kinds = DurableKinds();
  for (size_t s = 0; s < kinds.size(); ++s) {
    for (size_t t = 0; t < kinds.size(); ++t) {
      const bool compatible = s == t;
      auto target = kinds[t].make();
      FeedState(target.get(), 100, 300);
      const double baseline = target->EstimateImplicationCount();
      Status status = target->RestoreState(snapshots[s]);
      if (compatible) {
        EXPECT_TRUE(status.ok())
            << kinds[s].name << " -> " << kinds[t].name << ": " << status;
      } else {
        EXPECT_FALSE(status.ok())
            << kinds[s].name << " restored into " << kinds[t].name;
        EXPECT_EQ(target->EstimateImplicationCount(), baseline);
      }
    }
  }
}

TEST(StateFuzzTest, FutureVersionSnapshotsRejected) {
  for (const DurableKind& kind : DurableKinds()) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    FeedState(source.get(), 0, 400);
    auto snapshot = source->SerializeState();
    ASSERT_TRUE(snapshot.ok());
    // The version varint sits after the 4-byte magic; bump it and re-seal
    // the CRC trailer so only the version check can object.
    std::string future = *snapshot;
    ASSERT_EQ(future[4], static_cast<char>(kSnapshotFormatVersion));
    future[4] = static_cast<char>(kSnapshotFormatVersion + 1);
    uint32_t crc = Crc32c(
        std::string_view(future).substr(0, future.size() - sizeof(uint32_t)));
    std::memcpy(future.data() + future.size() - sizeof(crc), &crc,
                sizeof(crc));
    auto target = kind.make();
    Status status = target->RestoreState(future);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("version"), std::string_view::npos);
  }
}

// ---------------------------------------------------------------------------
// Delta snapshot robustness: a corrupt, stale, or future kDeltaSnapshot
// must be refused cleanly with ZERO partial mutation of the receiver —
// and after every refusal the normal resync (full pull, re-materialize,
// next delta) must still work. One sweep per delta-capable kind.
// ---------------------------------------------------------------------------

const std::vector<DurableKind>& DeltaCapableKinds() {
  static const std::vector<DurableKind> kinds = [] {
    std::vector<DurableKind> out;
    for (const DurableKind& kind : DurableKinds()) {
      if (kind.name == "nips_ci") out.push_back(kind);
    }
    return out;
  }();
  return kinds;
}

TEST(DeltaFuzzTest, CorruptDeltasRefusedThenResyncCleanly) {
  for (const DurableKind& kind : DeltaCapableKinds()) {
    SCOPED_TRACE(kind.name);
    auto source = kind.make();
    FeedState(source.get(), 0, 1200);

    // Receiver bootstraps from the full snapshot (epoch 1), sender notes
    // the baseline, then advances so a real patch exists.
    auto full = source->SerializeState();
    ASSERT_TRUE(full.ok());
    auto materialized = MaterializeEstimator(*full);
    ASSERT_TRUE(materialized.ok()) << materialized.status();
    std::unique_ptr<ImplicationEstimator> twin = std::move(*materialized);
    source->NoteSnapshotEpoch(1);
    FeedState(source.get(), 1200, 1500);
    auto fragment = source->SerializeDelta(1, 2);
    ASSERT_TRUE(fragment.ok()) << fragment.status();
    const std::string valid = WrapDeltaSnapshot(1, 2, *fragment, true);
    auto baseline = twin->SerializeState();
    ASSERT_TRUE(baseline.ok());

    // Any refusal must leave the twin bit-for-bit where it was.
    auto expect_untouched = [&](const char* what) {
      auto state = twin->SerializeState();
      ASSERT_TRUE(state.ok());
      EXPECT_EQ(*state, *baseline) << what << " partially mutated the twin";
    };

    // Bitflips: the envelope CRC (or a header check behind it) refuses.
    Rng rng(47);
    for (int iter = 0; iter < 500; ++iter) {
      std::string corrupted = valid;
      int flips = 1 + static_cast<int>(rng.Uniform(8));
      for (int f = 0; f < flips; ++f) {
        size_t pos = rng.Uniform(corrupted.size());
        corrupted[pos] ^= static_cast<char>(1 << rng.Uniform(8));
      }
      auto applied = ApplyDeltaSnapshot(twin.get(), corrupted, 1);
      ASSERT_FALSE(applied.ok()) << "bitflipped delta applied, iter " << iter;
      if (iter % 50 == 0) expect_untouched("bitflip");
    }
    expect_untouched("bitflip sweep");

    // Truncations at every length.
    for (size_t len = 0; len < valid.size(); len += 3) {
      auto applied = ApplyDeltaSnapshot(
          twin.get(), std::string_view(valid).substr(0, len), 1);
      ASSERT_FALSE(applied.ok()) << "truncated delta applied, len " << len;
    }
    expect_untouched("truncation sweep");

    // Random garbage.
    for (int iter = 0; iter < 200; ++iter) {
      std::string garbage(rng.Uniform(200), '\0');
      for (char& c : garbage) c = static_cast<char>(rng.Uniform(256));
      auto applied = ApplyDeltaSnapshot(twin.get(), garbage, 1);
      ASSERT_FALSE(applied.ok()) << "garbage applied, iter " << iter;
    }
    expect_untouched("garbage sweep");

    // Stale/wrong epoch: a perfectly valid delta against the wrong
    // baseline is the epoch-regression case — FailedPrecondition.
    auto stale = ApplyDeltaSnapshot(twin.get(), valid, 7);
    EXPECT_EQ(stale.status().code(), StatusCode::kFailedPrecondition);
    expect_untouched("stale epoch");

    // Future delta-format version, CRC re-sealed so only the version
    // check can object; same for an unknown capability flag bit.
    {
      auto payload = UnwrapSnapshot(valid, SnapshotKind::kDeltaSnapshot);
      ASSERT_TRUE(payload.ok());
      std::string future(*payload);
      future[0] = static_cast<char>(kDeltaFormatVersion + 1);
      auto applied = ApplyDeltaSnapshot(
          twin.get(), WrapSnapshot(SnapshotKind::kDeltaSnapshot, future), 1);
      ASSERT_FALSE(applied.ok());
      EXPECT_NE(applied.status().message().find("version"),
                std::string_view::npos);
      std::string flagged(*payload);
      flagged[1] = static_cast<char>(flagged[1] | 0x80);
      applied = ApplyDeltaSnapshot(
          twin.get(), WrapSnapshot(SnapshotKind::kDeltaSnapshot, flagged), 1);
      ASSERT_FALSE(applied.ok());
      expect_untouched("future version / unknown flag");
    }

    // The valid patch still applies after the whole gauntlet, and the
    // refusal-then-resync path works: desync the twin, watch the next
    // patch refuse, resync from a full snapshot, and patch again.
    auto applied = ApplyDeltaSnapshot(twin.get(), valid, 1);
    ASSERT_TRUE(applied.ok()) << applied.status();
    auto after = twin->SerializeState();
    auto want = source->SerializeState();
    ASSERT_TRUE(after.ok() && want.ok());
    EXPECT_EQ(*after, *want);

    FeedState(source.get(), 1500, 1800);
    auto next = source->SerializeDelta(2, 3);
    ASSERT_TRUE(next.ok());
    const std::string next_sealed = WrapDeltaSnapshot(2, 3, *next, false);
    auto desynced = kind.make();  // never held the patch's baseline
    FeedState(desynced.get(), 0, 100);
    auto desynced_before = desynced->SerializeState();
    ASSERT_TRUE(desynced_before.ok());
    auto refused = ApplyDeltaSnapshot(desynced.get(), next_sealed, 2);
    if (!refused.ok()) {
      auto unchanged = desynced->SerializeState();
      ASSERT_TRUE(unchanged.ok());
      EXPECT_EQ(*unchanged, *desynced_before)
          << "refused patch mutated a desynced receiver";
    } else {
      // A patch that touched every cell since its baseline is total —
      // it can legitimately rebuild even a desynced receiver into the
      // sender's state. Either way the result must be a whole, usable
      // estimator, never a torn one.
      auto rebuilt = desynced->SerializeState();
      ASSERT_TRUE(rebuilt.ok());
      (void)desynced->EstimateImplicationCount();
    }
    auto resync_full = source->SerializeState();
    ASSERT_TRUE(resync_full.ok());
    auto resynced = MaterializeEstimator(*resync_full);
    ASSERT_TRUE(resynced.ok());
    source->NoteSnapshotEpoch(3);
    FeedState(source.get(), 1800, 2000);
    auto healed = source->SerializeDelta(3, 4);
    ASSERT_TRUE(healed.ok());
    auto heal_applied = ApplyDeltaSnapshot(
        resynced->get(), WrapDeltaSnapshot(3, 4, *healed, true), 3);
    ASSERT_TRUE(heal_applied.ok()) << heal_applied.status();
    auto healed_state = (*resynced)->SerializeState();
    auto source_state = source->SerializeState();
    ASSERT_TRUE(healed_state.ok() && source_state.ok());
    EXPECT_EQ(*healed_state, *source_state);
  }
}

TEST(StateFuzzTest, LossyCountingSnapshotFuzz) {
  LossyCounting lossy(0.05);
  for (uint64_t i = 0; i < 3000; ++i) lossy.Observe(i % 41);
  auto snapshot = lossy.SerializeState();
  ASSERT_TRUE(snapshot.ok());
  LossyCounting target(0.05);
  ASSERT_TRUE(target.RestoreState(*snapshot).ok());
  Rng rng(43);
  for (int iter = 0; iter < 500; ++iter) {
    std::string corrupted = *snapshot;
    size_t pos = rng.Uniform(corrupted.size());
    corrupted[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    Status status = target.RestoreState(corrupted);
    if (!status.ok()) {
      // Target must still hold the last good state.
      ASSERT_TRUE(target.RestoreState(*snapshot).ok());
    }
  }
  for (size_t len = 0; len < snapshot->size(); len += 7) {
    EXPECT_FALSE(target.RestoreState(snapshot->substr(0, len)).ok());
  }
}

TEST(StateFuzzTest, QueryEngineSnapshotFuzz) {
  QueryEngine engine(Schema({{"A", 64}, {"B", 32}}));
  ImplicationQuerySpec spec;
  spec.a_attributes = {"A"};
  spec.b_attributes = {"B"};
  spec.conditions = StateCond();
  spec.estimator.kind = EstimatorKind::kExact;
  ASSERT_TRUE(engine.Register(std::move(spec)).ok());
  std::vector<ValueId> row(2);
  for (uint64_t i = 0; i < 400; ++i) {
    row[0] = static_cast<ValueId>(i % 63);
    row[1] = static_cast<ValueId>(i % 17);
    engine.ObserveTuple(TupleRef(row.data(), row.size()));
  }
  auto snapshot = engine.SerializeState();
  ASSERT_TRUE(snapshot.ok());
  Rng rng(47);
  for (int iter = 0; iter < 400; ++iter) {
    std::string corrupted = *snapshot;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(corrupted.size());
      corrupted[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    }
    QueryEngine victim(Schema({{"A", 64}, {"B", 32}}));
    Status status = victim.RestoreState(corrupted);
    if (!status.ok()) {
      // A failed engine restore leaves a fresh, reusable engine.
      EXPECT_EQ(victim.num_queries(), 0);
      EXPECT_EQ(victim.tuples_seen(), 0u);
      EXPECT_TRUE(victim.RestoreState(*snapshot).ok());
    }
  }
  for (size_t len = 0; len < snapshot->size();
       len += snapshot->size() / 61 + 1) {
    QueryEngine victim(Schema({{"A", 64}, {"B", 32}}));
    EXPECT_FALSE(victim.RestoreState(snapshot->substr(0, len)).ok());
    EXPECT_EQ(victim.num_queries(), 0);
  }
}

// ---------------------------------------------------------------------------
// kSynopsisStore section robustness. The store rides as a nested
// envelope inside the kQueryEngineV2 container, so naive bit flips are
// caught by the outer CRC before the store parser ever runs. These
// tests re-seal both envelopes around each mutation so the corruption
// reaches the structural checks — dangling query→synopsis references,
// truncated entries, bad refcounts — which must refuse the restore and
// leave the engine fresh.
// ---------------------------------------------------------------------------

Schema SharingSchema() { return Schema({{"A", 64}, {"B", 32}}); }

ImplicationQuerySpec SharingSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"A"};
  spec.b_attributes = {"B"};
  spec.conditions = StateCond();
  spec.estimator.kind = EstimatorKind::kExact;
  return spec;
}

// A checkpoint whose store section is genuinely shared: two queries,
// one synopsis.
std::string SharedEngineSnapshot() {
  QueryEngine engine(SharingSchema());
  EXPECT_TRUE(engine.Register(SharingSpec()).ok());
  EXPECT_TRUE(engine.Register(SharingSpec()).ok());
  std::vector<ValueId> row(2);
  for (uint64_t i = 0; i < 300; ++i) {
    row[0] = static_cast<ValueId>(i % 63);
    row[1] = static_cast<ValueId>(i % 17);
    engine.ObserveTuple(TupleRef(row.data(), row.size()));
  }
  auto snapshot = engine.SerializeState();
  EXPECT_TRUE(snapshot.ok());
  return std::move(*snapshot);
}

// Splits a kQueryEngineV2 container into (head, store payload, tail)
// and re-seals a container around a replacement store payload — both
// the inner kSynopsisStore envelope and the outer CRC are recomputed,
// so only the store parser can object to the mutation.
struct SplitContainer {
  std::string head;         // prefix fields before the store blob
  std::string store_bytes;  // the inner envelope's payload
  std::string tail;         // query records after the store blob
};

SplitContainer SplitV2(std::string_view snapshot) {
  SplitContainer out;
  auto payload = UnwrapSnapshot(snapshot, SnapshotKind::kQueryEngineV2);
  EXPECT_TRUE(payload.ok());
  ByteReader in(*payload);
  ByteWriter head;
  uint64_t u64v;
  uint8_t u8v;
  EXPECT_TRUE(in.ReadU64(&u64v).ok());
  head.PutU64(u64v);
  EXPECT_TRUE(in.ReadVarint64(&u64v).ok());
  head.PutVarint64(u64v);
  EXPECT_TRUE(in.ReadVarint64(&u64v).ok());
  head.PutVarint64(u64v);
  EXPECT_TRUE(in.ReadU8(&u8v).ok());
  head.PutU8(u8v);
  if (u8v != 0) {
    std::string_view dict;
    EXPECT_TRUE(in.ReadLengthPrefixed(&dict).ok());
    head.PutLengthPrefixed(dict);
  }
  std::string_view blob;
  EXPECT_TRUE(in.ReadLengthPrefixed(&blob).ok());
  auto store = UnwrapSnapshot(blob, SnapshotKind::kSynopsisStore);
  EXPECT_TRUE(store.ok());
  out.head = head.Release();
  out.store_bytes = std::string(*store);
  out.tail = std::string(payload->substr(payload->size() - in.remaining()));
  return out;
}

std::string RewrapV2(const SplitContainer& split,
                     std::string_view store_bytes) {
  std::string container = split.head;
  ByteWriter out;
  out.PutLengthPrefixed(
      WrapSnapshot(SnapshotKind::kSynopsisStore, store_bytes));
  container += out.Release();
  container += split.tail;
  return WrapSnapshot(SnapshotKind::kQueryEngineV2, container);
}

TEST(StateFuzzTest, SynopsisStoreBitflipsRefuseOrRestoreCleanly) {
  const std::string snapshot = SharedEngineSnapshot();
  const SplitContainer split = SplitV2(snapshot);
  Rng rng(53);
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = split.store_bytes;
    int flips = 1 + static_cast<int>(rng.Uniform(5));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    }
    QueryEngine victim(SharingSchema());
    Status status = victim.RestoreState(RewrapV2(split, mutated));
    if (!status.ok()) {
      // Refusal must leave a fresh, fully reusable engine — no partial
      // store, no partial registrations.
      EXPECT_EQ(victim.num_queries(), 0);
      EXPECT_EQ(victim.num_synopses(), 0);
      EXPECT_EQ(victim.tuples_seen(), 0u);
      EXPECT_TRUE(victim.RestoreState(snapshot).ok());
    } else {
      // A mutation that survives every structural check must still
      // yield answerable queries.
      for (QueryId id = 0; id < victim.num_queries(); ++id) {
        (void)victim.Answer(id);
      }
    }
  }
}

TEST(StateFuzzTest, SynopsisStoreTruncationsRefuseWithoutPartialMutation) {
  const std::string snapshot = SharedEngineSnapshot();
  const SplitContainer split = SplitV2(snapshot);
  for (size_t len = 0; len < split.store_bytes.size(); ++len) {
    QueryEngine victim(SharingSchema());
    Status status =
        victim.RestoreState(RewrapV2(split, split.store_bytes.substr(0, len)));
    EXPECT_FALSE(status.ok()) << "truncated store section restored at len "
                              << len;
    EXPECT_EQ(victim.num_queries(), 0);
    EXPECT_EQ(victim.num_synopses(), 0);
    EXPECT_TRUE(victim.RestoreState(snapshot).ok());
  }
}

TEST(StateFuzzTest, DanglingSynopsisReferencesRefuseRestore) {
  const std::string snapshot = SharedEngineSnapshot();
  const SplitContainer split = SplitV2(snapshot);

  // An empty store (zero entries) with the query records intact: every
  // active query now references a synopsis that does not exist.
  {
    ByteWriter empty_store;
    empty_store.PutVarint64(0);
    QueryEngine victim(SharingSchema());
    Status status =
        victim.RestoreState(RewrapV2(split, empty_store.Release()));
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("dangling"), std::string_view::npos)
        << status;
    EXPECT_EQ(victim.num_queries(), 0);
    EXPECT_EQ(victim.num_synopses(), 0);
    EXPECT_TRUE(victim.RestoreState(snapshot).ok());
  }

  // A store whose only entry is a tombstone: the reference is in range
  // but points at a dead synopsis — equally dangling.
  {
    ByteWriter dead_store;
    dead_store.PutVarint64(1);
    dead_store.PutU8(0);  // not live
    QueryEngine victim(SharingSchema());
    Status status =
        victim.RestoreState(RewrapV2(split, dead_store.Release()));
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("dangling"), std::string_view::npos)
        << status;
    EXPECT_EQ(victim.num_queries(), 0);
    EXPECT_TRUE(victim.RestoreState(snapshot).ok());
  }
}

// ---------------------------------------------------------------------------
// kTriggerStore section robustness. Restore recompiles the statement
// text the section carries, so hostile section bytes reach the trigger
// parser. The section is the container's last field; these tests re-seal
// both envelopes around each mutation so only the trigger store can
// object, and a refusal must leave the engine fresh.
// ---------------------------------------------------------------------------

// Counts sources seen with exactly one destination.
ImplicationQuerySpec LabeledSpec() {
  ImplicationQuerySpec spec = SharingSpec();
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.label = "flows";
  return spec;
}

// Two armed triggers: `ramp` fired at tuple 20 and is mid-cooldown with
// 5 of its 8 MOVING_AVG samples filled; `quiet` has never fired.
QueryEngine* ArmedEngine(QueryEngine* engine) {
  EXPECT_TRUE(engine->Register(LabeledSpec()).ok());
  EXPECT_TRUE(engine
                  ->InstallTrigger("CREATE TRIGGER ramp ON flows WHEN "
                                   "MOVING_AVG(flows, 8) >= 4 EVERY 20 TUPLES "
                                   "COOLDOWN 100000")
                  .ok());
  EXPECT_TRUE(engine
                  ->InstallTrigger("CREATE TRIGGER quiet ON flows WHEN "
                                   "DELTA(flows) > 1000 AND flows > 0 "
                                   "EVERY 50 TUPLES")
                  .ok());
  std::vector<ValueId> row(2);
  for (uint64_t i = 0; i < 100; ++i) {
    row[0] = static_cast<ValueId>(i % 63);
    row[1] = static_cast<ValueId>(i % 17);
    engine->ObserveTuple(TupleRef(row.data(), row.size()));
  }
  EXPECT_EQ(engine->TakeTriggerFirings().size(), 1u);
  return engine;
}

// An engine checkpoint split around its trigger section.
struct TriggerSplit {
  std::string snapshot;       // the whole checkpoint
  std::string head;           // container payload before the section
  std::string trigger_bytes;  // the kTriggerStore envelope's payload
};

std::string TriggerSection(std::string_view trigger_bytes) {
  ByteWriter out;
  out.PutLengthPrefixed(WrapSnapshot(SnapshotKind::kTriggerStore, trigger_bytes));
  return out.Release();
}

TriggerSplit SplitTriggerSection() {
  QueryEngine engine(SharingSchema());
  ArmedEngine(&engine);
  TriggerSplit out;
  auto snapshot = engine.SerializeState();
  EXPECT_TRUE(snapshot.ok());
  out.snapshot = std::move(*snapshot);
  ByteWriter trigger_bytes;
  engine.triggers()->SerializeTo(&trigger_bytes);
  out.trigger_bytes = trigger_bytes.Release();
  auto payload = UnwrapSnapshot(out.snapshot, SnapshotKind::kQueryEngineV2);
  EXPECT_TRUE(payload.ok());
  const std::string section = TriggerSection(out.trigger_bytes);
  EXPECT_TRUE(payload->ends_with(section));
  out.head = std::string(payload->substr(0, payload->size() - section.size()));
  return out;
}

std::string ResealTriggers(const TriggerSplit& split,
                           std::string_view trigger_bytes) {
  return WrapSnapshot(SnapshotKind::kQueryEngineV2,
                      split.head + TriggerSection(trigger_bytes));
}

void ExpectFresh(const QueryEngine& victim) {
  EXPECT_EQ(victim.num_queries(), 0);
  EXPECT_EQ(victim.num_synopses(), 0);
  EXPECT_EQ(victim.tuples_seen(), 0u);
  EXPECT_EQ(victim.triggers(), nullptr);
}

TEST(StateFuzzTest, TriggerSectionTruncationsRefuseAndLeaveTheEngineFresh) {
  const TriggerSplit split = SplitTriggerSection();
  for (size_t len = 0; len < split.trigger_bytes.size(); ++len) {
    QueryEngine victim(SharingSchema());
    Status status = victim.RestoreState(
        ResealTriggers(split, split.trigger_bytes.substr(0, len)));
    EXPECT_FALSE(status.ok()) << "truncated trigger section restored at len "
                              << len;
    ExpectFresh(victim);
    ASSERT_TRUE(victim.RestoreState(split.snapshot).ok());
  }
}

TEST(StateFuzzTest, TriggerSectionBitflipsRefuseOrRestoreCleanly) {
  const TriggerSplit split = SplitTriggerSection();
  Rng rng(59);
  std::vector<ValueId> row(2);
  for (int iter = 0; iter < 400; ++iter) {
    std::string mutated = split.trigger_bytes;
    int flips = 1 + static_cast<int>(rng.Uniform(5));
    for (int f = 0; f < flips; ++f) {
      size_t pos = rng.Uniform(mutated.size());
      mutated[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    }
    QueryEngine victim(SharingSchema());
    Status status = victim.RestoreState(ResealTriggers(split, mutated));
    if (!status.ok()) {
      ExpectFresh(victim);
      EXPECT_TRUE(victim.RestoreState(split.snapshot).ok());
      continue;
    }
    // An accepted section must evaluate and serialize like any other.
    for (uint64_t i = 0; i < 200; ++i) {
      row[0] = static_cast<ValueId>(i % 63);
      row[1] = static_cast<ValueId>(i % 17);
      victim.ObserveTuple(TupleRef(row.data(), row.size()));
    }
    (void)victim.TakeTriggerFirings();
    EXPECT_TRUE(victim.SerializeState().ok());
  }
}

// The version-1 section (statement plus bytecode program) has no reader:
// its version byte refuses it before anything else is read.
TEST(StateFuzzTest, VersionOneTriggerSectionIsRefused) {
  const TriggerSplit split = SplitTriggerSection();
  std::string old_version = split.trigger_bytes;
  old_version[0] = 1;
  QueryEngine victim(SharingSchema());
  Status status = victim.RestoreState(ResealTriggers(split, old_version));
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("unsupported version 1"),
            std::string_view::npos)
      << status;
  ExpectFresh(victim);
  EXPECT_TRUE(victim.RestoreState(split.snapshot).ok());
}

TEST(CsvFuzzTest, RandomTextNeverCrashes) {
  Rng rng(6);
  for (int iter = 0; iter < 2000; ++iter) {
    std::string text;
    size_t len = rng.Uniform(200);
    for (size_t i = 0; i < len; ++i) {
      // Bias toward structure characters so parsing paths are exercised.
      switch (rng.Uniform(5)) {
        case 0:
          text.push_back(',');
          break;
        case 1:
          text.push_back('\n');
          break;
        default:
          text.push_back(static_cast<char>(rng.Uniform(94) + 33));
      }
    }
    (void)ReadCsvString(text);
  }
}

TEST(CsvFuzzTest, ParsedTablesAreInternallyConsistent) {
  Rng rng(7);
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = "a,b\n";
    size_t rows = rng.Uniform(10);
    for (size_t r = 0; r < rows; ++r) {
      text += std::to_string(rng.Uniform(5)) + "," +
              std::to_string(rng.Uniform(5)) + "\n";
    }
    auto table = ReadCsvString(text);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table->stream.num_tuples(), rows);
    while (auto tuple = table->stream.Next()) {
      for (size_t i = 0; i < tuple->size(); ++i) {
        EXPECT_LT((*tuple)[i], table->dictionaries[i].size());
      }
    }
  }
}

}  // namespace
}  // namespace implistat
