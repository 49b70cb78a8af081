// Shared synopsis store + entailment derivation (query/synopsis_store.h,
// query/entailment.h, the engine's multi-tenant registration path):
//
//   * key-identical queries bind one estimator and answer byte-identical
//     to a dedicated run (one engine per query), also across a
//     checkpoint → restore → re-share cycle, and a restored dedicated
//     layout (one synopsis per query) keeps its structure;
//   * reference counting frees an estimator exactly when its last
//     binding deregisters, and ids/labels behave (NotFound after
//     deregistration, AlreadyExists on duplicate labels);
//   * entailment-derived answers carry [lower, upper] bounds that
//     contain the exact ground truth and allocate no synopsis.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "query/engine.h"
#include "stream/csv_io.h"

namespace implistat {
namespace {

// Table 1 from the paper — small enough that kExact is cheap and every
// expected count is known in closed form (see query_engine_test.cc).
constexpr const char* kTable1 =
    "Source,Destination,Service,Time\n"
    "S1,D2,WWW,Morning\n"
    "S2,D1,FTP,Morning\n"
    "S1,D3,WWW,Morning\n"
    "S2,D1,P2P,Noon\n"
    "S1,D3,P2P,Afternoon\n"
    "S1,D3,WWW,Afternoon\n"
    "S1,D3,P2P,Afternoon\n"
    "S3,D3,P2P,Night\n";

ImplicationQuerySpec Spec(std::vector<std::string> a,
                          std::vector<std::string> b, uint32_t k,
                          uint64_t sigma, double gamma, uint32_t c,
                          EstimatorKind kind = EstimatorKind::kExact) {
  ImplicationQuerySpec spec;
  spec.a_attributes = std::move(a);
  spec.b_attributes = std::move(b);
  spec.conditions.max_multiplicity = k;
  spec.conditions.min_support = sigma;
  spec.conditions.min_top_confidence = gamma;
  spec.conditions.confidence_c = c;
  spec.estimator.kind = kind;
  spec.estimator.nips.num_bitmaps = 8;
  spec.estimator.nips.seed = 11;
  return spec;
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    auto nibble = [](char c) -> int {
      return c <= '9' ? c - '0' : c - 'a' + 10;
    };
    bytes.push_back(
        static_cast<char>(nibble(hex[i]) * 16 + nibble(hex[i + 1])));
  }
  return bytes;
}

// A dedicated-layout checkpoint: two key-identical Exact queries
// Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2), each owning its own
// synopsis, after Table 1 (no dictionaries). Engines that could turn
// sharing off wrote this layout, and restore must keep accepting it.
constexpr std::string_view kDedicatedTable1Checkpoint =
    "494d5053020c9b05e18c430ae66d3fe4040800a103494d5053020d9503020101"
    "0201000005000000019a9999999999e93f020000000101000008040000000200"
    "00003a000000000b00000000000000800f270000000000000000007b14ae47e1"
    "7a843f7b14ae47e17a843f7b14ae47e17a843f9a9999999999b93f0000000000"
    "00000064494d505302025905000000019a9999999999e93f0200000001080302"
    "0000000000000004030000000100010001000000000000000101000000000001"
    "0101000000000000000100000000000000000301000000000001010000000000"
    "00000003cc09701c01010201000005000000019a9999999999e93f0200000001"
    "0100000804000000020000003a000000000b00000000000000800f2700000000"
    "00000000007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a9999"
    "999999b93f000000000000000064494d505302025905000000019a9999999999"
    "e93f020000000108030200000000000000040300000001000100010000000000"
    "0000010100000000000101010000000000000001000000000000000003010000"
    "0000000101000000000000000003cc09701c9c127e9c02010753657276696365"
    "0106536f7572636505000000019a9999999999e93f0200000001000001000008"
    "04000000020000003a000000000b00000000000000800f270000000000000000"
    "007b14ae47e17a843f7b14ae47e17a843f7b14ae47e17a843f9a9999999999b9"
    "3f0000000000000000000100000107536572766963650106536f757263650500"
    "0000019a9999999999e93f020000000100000100000804000000020000003a00"
    "0000000b00000000000000800f270000000000000000007b14ae47e17a843f7b"
    "14ae47e17a843f7b14ae47e17a843f9a9999999999b93f000000000000000000"
    "01000130355f53";

class SharingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = ReadCsvString(kTable1);
    ASSERT_TRUE(table.ok());
    table_.emplace(std::move(table).value());
  }

  void Feed(QueryEngine& engine) {
    ASSERT_TRUE(table_->stream.Reset().ok());
    ASSERT_TRUE(engine.ObserveStream(table_->stream).ok());
  }

  std::optional<CsvTable> table_;
};

// The tentpole claim: a shared binding answers byte-for-byte what a
// dedicated estimator would, because it IS the same estimator fed the
// same observation sequence. Each query is compared against its own
// one-query engine down to the serialized estimator state.
TEST_F(SharingTest, SharedAnswersAreByteIdenticalToDedicated) {
  const ImplicationQuerySpec spec =
      Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2, EstimatorKind::kNipsCi);
  QueryEngine shared(table_->schema);
  ASSERT_TRUE(shared.Register(spec).ok());
  ASSERT_TRUE(shared.Register(spec).ok());
  Feed(shared);
  EXPECT_EQ(shared.num_synopses(), 1);
  EXPECT_EQ(shared.Binding(0).value(), QueryBinding::kOwner);
  EXPECT_EQ(shared.Binding(1).value(), QueryBinding::kShared);
  EXPECT_EQ(shared.SynopsisOf(0).value(), shared.SynopsisOf(1).value());

  uint64_t dedicated_bytes = 0;
  for (QueryId id : {0, 1}) {
    QueryEngine dedicated(table_->schema);
    ASSERT_TRUE(dedicated.Register(spec).ok());
    Feed(dedicated);
    dedicated_bytes += dedicated.TotalSynopsisMemoryBytes();
    // Bitwise double equality, not a tolerance: sharing must be
    // invisible in the answers.
    EXPECT_EQ(shared.Answer(id).value(), dedicated.Answer(0).value());
    auto shared_state = shared.Estimator(id).value()->SerializeState();
    auto dedicated_state = dedicated.Estimator(0).value()->SerializeState();
    ASSERT_TRUE(shared_state.ok() && dedicated_state.ok());
    EXPECT_EQ(*shared_state, *dedicated_state) << "query " << id;
  }
  // One estimator instead of two: the memory ratio the bench gates on.
  EXPECT_LT(shared.TotalSynopsisMemoryBytes(), dedicated_bytes);
}

// The synopsis key covers everything that changes the estimator's bytes;
// any difference must force a dedicated synopsis.
TEST_F(SharingTest, KeyDifferencesPreventSharing) {
  QueryEngine engine(table_->schema);
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2)).ok());
  // Different γ, different σ, different B, different estimator kind.
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.75, 2)).ok());
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 2, 0.8, 2)).ok());
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Destination"}, 5, 1, 0.8, 2))
          .ok());
  ASSERT_TRUE(engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2,
                                   EstimatorKind::kNipsCi)).ok());
  EXPECT_EQ(engine.num_queries(), 5);
  EXPECT_EQ(engine.num_synopses(), 5);
}

// A complement query reads EstimateNonImplicationCount off the same
// synopsis its non-complement twin owns — complement is an answer-time
// choice, not part of the key.
TEST_F(SharingTest, ComplementSharesTheNonComplementSynopsis) {
  QueryEngine engine(table_->schema);
  ASSERT_TRUE(
      engine.Register(Spec({"Destination"}, {"Source"}, 1, 1, 1.0, 1)).ok());
  ImplicationQuerySpec complement =
      Spec({"Destination"}, {"Source"}, 1, 1, 1.0, 1);
  complement.complement = true;
  ASSERT_TRUE(engine.Register(std::move(complement)).ok());
  EXPECT_EQ(engine.num_synopses(), 1);
  Feed(engine);
  EXPECT_DOUBLE_EQ(engine.Answer(0).value(), 2.0);  // D2, D1
  EXPECT_DOUBLE_EQ(engine.Answer(1).value(), 1.0);  // D3
}

TEST_F(SharingTest, DeregisterDropsReferencesAndFreesLast) {
  QueryEngine engine(table_->schema);
  auto q1 = engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2));
  auto q2 = engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2));
  ASSERT_TRUE(q1.ok() && q2.ok());
  Feed(engine);
  ASSERT_EQ(engine.num_synopses(), 1);
  const uint64_t held = engine.TotalSynopsisMemoryBytes();
  EXPECT_GT(held, 0u);

  // Dropping one of two references keeps the estimator (and its state).
  ASSERT_TRUE(engine.Deregister(*q1).ok());
  EXPECT_EQ(engine.num_synopses(), 1);
  EXPECT_EQ(engine.TotalSynopsisMemoryBytes(), held);
  EXPECT_DOUBLE_EQ(engine.Answer(*q2).value(), 2.0);

  // Dropping the last reference frees it.
  ASSERT_TRUE(engine.Deregister(*q2).ok());
  EXPECT_EQ(engine.num_synopses(), 0);
  EXPECT_EQ(engine.TotalSynopsisMemoryBytes(), 0u);

  // Ids never shift, but a deregistered id answers NotFound everywhere.
  for (QueryId id : {*q1, *q2}) {
    EXPECT_EQ(engine.Answer(id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(engine.AnswerEx(id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(engine.Deregister(id).code(), StatusCode::kNotFound);
    EXPECT_EQ(engine.MergeEstimatorState(id, "").code(),
              StatusCode::kNotFound);
  }
  EXPECT_TRUE(engine.ActiveQueryIds().empty());

  // Re-registering builds a fresh synopsis that starts from zero — the
  // freed state must not resurrect.
  auto q3 = engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2));
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(engine.num_synopses(), 1);
  EXPECT_DOUBLE_EQ(engine.Answer(*q3).value(), 0.0);
}

TEST_F(SharingTest, UnknownIdsAnswerNotFound) {
  QueryEngine engine(table_->schema);
  for (QueryId id : {-1, 0, 7}) {
    EXPECT_EQ(engine.Answer(id).status().code(), StatusCode::kNotFound);
    EXPECT_EQ(engine.Deregister(id).code(), StatusCode::kNotFound);
  }
}

TEST_F(SharingTest, DuplicateActiveLabelRejected) {
  QueryEngine engine(table_->schema);
  ImplicationQuerySpec spec = Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2);
  spec.label = "tenants";
  ASSERT_TRUE(engine.Register(spec).ok());
  // Same label on a different query: rejected, nothing registered.
  ImplicationQuerySpec clash = Spec({"Service"}, {"Source"}, 1, 1, 1.0, 1);
  clash.label = "tenants";
  EXPECT_EQ(engine.Register(clash).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(engine.num_queries(), 1);
  // Unlabeled queries never clash; a deregistered label is reusable.
  ASSERT_TRUE(engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2))
                  .ok());
  ASSERT_TRUE(engine.Deregister(0).ok());
  EXPECT_TRUE(engine.Register(clash).ok());
}

// Checkpoint → restore → re-share: the kQueryEngineV2 container stores
// each shared estimator once and restores the exact sharing structure;
// a query registered after the restore re-shares against it.
TEST_F(SharingTest, CheckpointRestorePreservesSharingAndBytes) {
  QueryEngine engine(table_->schema);
  ASSERT_TRUE(engine.SetDictionaries(table_->dictionaries).ok());
  ASSERT_TRUE(engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2,
                                   EstimatorKind::kNipsCi)).ok());
  ASSERT_TRUE(engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2,
                                   EstimatorKind::kNipsCi)).ok());
  ASSERT_TRUE(
      engine.Register(Spec({"Destination"}, {"Source"}, 1, 1, 1.0, 1)).ok());
  Feed(engine);
  ASSERT_EQ(engine.num_synopses(), 2);
  auto snapshot = engine.SerializeState();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  QueryEngine restored(table_->schema);
  ASSERT_TRUE(restored.RestoreState(*snapshot).ok());
  EXPECT_EQ(restored.num_queries(), 3);
  EXPECT_EQ(restored.num_synopses(), 2);
  EXPECT_EQ(restored.tuples_seen(), engine.tuples_seen());
  EXPECT_EQ(restored.Binding(1).value(), QueryBinding::kShared);
  EXPECT_EQ(restored.SynopsisOf(0).value(), restored.SynopsisOf(1).value());
  for (QueryId id = 0; id < 3; ++id) {
    EXPECT_EQ(restored.Answer(id).value(), engine.Answer(id).value());
  }
  // The sketch state round-trips byte-identically (the exact counter's
  // hash-table serialization is order-unstable, so its contract is the
  // answer equality above, not the bytes).
  for (QueryId id : {0, 1}) {
    auto got = restored.Estimator(id).value()->SerializeState();
    auto want = engine.Estimator(id).value()->SerializeState();
    ASSERT_TRUE(got.ok() && want.ok());
    EXPECT_EQ(*got, *want) << "query " << id;
  }
  // Re-share: a fourth key-identical registration binds the restored
  // estimator instead of allocating.
  auto q4 = restored.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2,
                                   EstimatorKind::kNipsCi));
  ASSERT_TRUE(q4.ok());
  EXPECT_EQ(restored.num_synopses(), 2);
  EXPECT_EQ(restored.Binding(*q4).value(), QueryBinding::kShared);
  EXPECT_EQ(restored.Answer(*q4).value(), restored.Answer(0).value());
}

// The checkpoint's recorded structure wins: a dedicated-layout
// checkpoint restores as one synopsis per query, and restore replays
// that history rather than re-optimizing it. New registrations still
// share, and when every query bound to the first of the two key-identical
// synopses deregisters, the second inherits the Find slot instead of a
// fresh synopsis starting from zero.
TEST_F(SharingTest, RestoreHonorsDedicatedCheckpointStructure) {
  QueryEngine sharing(table_->schema);
  ASSERT_TRUE(sharing.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2))
                  .ok());
  Feed(sharing);

  QueryEngine restored(table_->schema);
  ASSERT_TRUE(
      restored.RestoreState(FromHex(kDedicatedTable1Checkpoint)).ok());
  EXPECT_EQ(restored.num_queries(), 2);
  EXPECT_EQ(restored.num_synopses(), 2);
  EXPECT_EQ(restored.tuples_seen(), sharing.tuples_seen());
  const SynopsisId first = restored.SynopsisOf(0).value();
  const SynopsisId second = restored.SynopsisOf(1).value();
  EXPECT_NE(first, second);
  for (QueryId id : {0, 1}) {
    EXPECT_EQ(restored.Binding(id).value(), QueryBinding::kOwner);
    EXPECT_EQ(restored.Answer(id).value(), sharing.Answer(0).value());
  }
  auto q2 = restored.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2));
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(restored.Binding(*q2).value(), QueryBinding::kShared);
  EXPECT_EQ(restored.SynopsisOf(*q2).value(), first);
  EXPECT_EQ(restored.num_synopses(), 2);

  ASSERT_TRUE(restored.Deregister(0).ok());
  ASSERT_TRUE(restored.Deregister(*q2).ok());
  EXPECT_EQ(restored.num_synopses(), 1);
  auto q3 = restored.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2));
  ASSERT_TRUE(q3.ok());
  EXPECT_EQ(restored.Binding(*q3).value(), QueryBinding::kShared);
  EXPECT_EQ(restored.SynopsisOf(*q3).value(), second);
  EXPECT_EQ(restored.num_synopses(), 1);
  EXPECT_EQ(restored.Answer(*q3).value(), sharing.Answer(0).value());
}

// Entailment: a derived query allocates nothing and answers with bounds
// that contain the exact ground truth (here the sources are kExact, so
// the bounds themselves are exact).
TEST_F(SharingTest, DerivedBoundsContainExactGroundTruth) {
  QueryEngine engine(table_->schema);
  // Lower source: harder everywhere (K=1 <= 3, γ=1.0 >= 0.8, c=1 <= 2).
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 1, 1, 1.0, 1)).ok());
  // Upper source: easier everywhere (K=5 >= 3, γ=0.75 <= 0.8, c=2 >= 2).
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.75, 2)).ok());
  ImplicationQuerySpec derived = Spec({"Service"}, {"Source"}, 3, 1, 0.8, 2);
  derived.allow_derived = true;
  auto q = engine.Register(std::move(derived));
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(engine.Binding(*q).value(), QueryBinding::kDerived);
  EXPECT_EQ(engine.num_synopses(), 2);  // the derived query allocated none
  Feed(engine);

  // Ground truth from a dedicated run of the derived spec.
  QueryEngine truth(table_->schema);
  ASSERT_TRUE(
      truth.Register(Spec({"Service"}, {"Source"}, 3, 1, 0.8, 2)).ok());
  Feed(truth);
  const double exact = truth.Answer(0).value();

  auto answer = engine.AnswerEx(*q);
  ASSERT_TRUE(answer.ok()) << answer.status();
  EXPECT_TRUE(answer->derived);
  EXPECT_LE(answer->lower, exact);
  EXPECT_GE(answer->upper, exact);
  EXPECT_DOUBLE_EQ(answer->estimate, (answer->lower + answer->upper) / 2);
  EXPECT_DOUBLE_EQ(answer->std_error,
                   (answer->upper - answer->lower) / 2);
  // The non-derived queries answer through the plain path.
  EXPECT_FALSE(engine.AnswerEx(0).value().derived);

  // A derived query's bounds track the stream: deregistering it releases
  // its source references without disturbing the source queries.
  ASSERT_TRUE(engine.Deregister(*q).ok());
  EXPECT_EQ(engine.num_synopses(), 2);
  EXPECT_TRUE(engine.Answer(0).ok());
}

TEST_F(SharingTest, DerivedFallsBackToDedicatedWithoutSources) {
  QueryEngine engine(table_->schema);
  // Nothing registered yet, so no bound source exists: allow_derived
  // quietly degrades to a dedicated synopsis with a normal answer.
  ImplicationQuerySpec spec = Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2);
  spec.allow_derived = true;
  auto q = engine.Register(std::move(spec));
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine.Binding(*q).value(), QueryBinding::kOwner);
  Feed(engine);
  EXPECT_DOUBLE_EQ(engine.Answer(*q).value(), 2.0);
  EXPECT_FALSE(engine.AnswerEx(*q).value().derived);
}

TEST_F(SharingTest, DerivedQueriesRefuseSnapshotFolds) {
  QueryEngine engine(table_->schema);
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.75, 2)).ok());
  ImplicationQuerySpec derived = Spec({"Service"}, {"Source"}, 1, 1, 0.8, 1);
  derived.allow_derived = true;
  auto q = engine.Register(std::move(derived));
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(engine.Binding(*q).value(), QueryBinding::kDerived);
  // A derived query owns no synopsis; folding remote state through it
  // would corrupt a source it merely references.
  EXPECT_EQ(engine.MergeEstimatorState(*q, "").code(),
            StatusCode::kFailedPrecondition);
}

// FoldUnits is the cluster tier's contract: one unit per live synopsis,
// addressed by an active non-derived representative.
TEST_F(SharingTest, FoldUnitsEnumerateSynopsesOnce) {
  QueryEngine engine(table_->schema);
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2)).ok());
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2)).ok());
  ASSERT_TRUE(
      engine.Register(Spec({"Destination"}, {"Source"}, 1, 1, 1.0, 1)).ok());
  auto units = engine.FoldUnits();
  ASSERT_EQ(units.size(), 2u);  // 3 queries, 2 synopses
  EXPECT_EQ(units[0].representative, 0);  // first active binder, not 1
  EXPECT_EQ(units[1].representative, 2);
  // Deregistering the representative moves the unit to the next binder.
  ASSERT_TRUE(engine.Deregister(0).ok());
  units = engine.FoldUnits();
  ASSERT_EQ(units.size(), 2u);
  EXPECT_EQ(units[0].representative, 1);
}

TEST_F(SharingTest, RestoreRequiresFreshEngine) {
  QueryEngine engine(table_->schema);
  ASSERT_TRUE(
      engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2)).ok());
  auto snapshot = engine.SerializeState();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_EQ(engine.RestoreState(*snapshot).code(),
            StatusCode::kFailedPrecondition);
}

// Sharing under ingest after restore: the restored store keeps counting
// exactly where the checkpoint left off, shared bindings included.
TEST_F(SharingTest, RestoredStoreResumesIngest) {
  QueryEngine engine(table_->schema);
  ASSERT_TRUE(engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2))
                  .ok());
  ASSERT_TRUE(engine.Register(Spec({"Service"}, {"Source"}, 5, 1, 0.8, 2))
                  .ok());
  Feed(engine);
  auto snapshot = engine.SerializeState();
  ASSERT_TRUE(snapshot.ok());

  QueryEngine restored(table_->schema);
  ASSERT_TRUE(restored.RestoreState(*snapshot).ok());
  Feed(engine);    // second pass over Table 1
  Feed(restored);  // same second pass after the round trip
  EXPECT_EQ(restored.tuples_seen(), engine.tuples_seen());
  EXPECT_EQ(restored.Answer(0).value(), engine.Answer(0).value());
  EXPECT_EQ(restored.Answer(1).value(), engine.Answer(1).value());
}

}  // namespace
}  // namespace implistat
