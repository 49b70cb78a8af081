// QueryEngine checkpoint/restore: whole-engine durability — schema
// fingerprint, query specs (WHERE clause included), tuples_seen and every
// estimator's state — through the atomic file path and the string-level
// SerializeState/RestoreState underneath it.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "query/engine.h"
#include "query/predicate.h"
#include "util/envelope.h"
#include "util/fileio.h"

namespace implistat {
namespace {

Schema TestSchema() {
  return Schema({{"Source", 100}, {"Destination", 50}, {"Hour", 24}});
}

ImplicationConditions TestConditions() {
  ImplicationConditions cond;
  cond.max_multiplicity = 1;
  cond.min_support = 1;
  cond.min_top_confidence = 1.0;
  cond.confidence_c = 1;
  return cond;
}

ImplicationQuerySpec BaseSpec() {
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions = TestConditions();
  return spec;
}

// A representative mix: ground truth, a WHERE-filtered NIPS/CI query, an
// unfiltered NIPS/CI query and a sliding-window query.
void RegisterSuite(QueryEngine& engine) {
  ImplicationQuerySpec exact = BaseSpec();
  exact.estimator.kind = EstimatorKind::kExact;
  exact.label = "exact ground truth";
  ASSERT_TRUE(engine.Register(std::move(exact)).ok());

  ImplicationQuerySpec morning = BaseSpec();
  morning.estimator.kind = EstimatorKind::kNipsCi;
  morning.estimator.nips.num_bitmaps = 8;
  morning.where = std::make_shared<RangePredicate>(2, 0, 11);
  morning.label = "morning only";
  ASSERT_TRUE(engine.Register(std::move(morning)).ok());

  ImplicationQuerySpec unfiltered = BaseSpec();
  unfiltered.estimator.kind = EstimatorKind::kNipsCi;
  unfiltered.estimator.nips.num_bitmaps = 8;
  unfiltered.label = "unfiltered";
  ASSERT_TRUE(engine.Register(std::move(unfiltered)).ok());

  ImplicationQuerySpec windowed = BaseSpec();
  windowed.estimator.kind = EstimatorKind::kNipsCi;
  windowed.estimator.nips.num_bitmaps = 8;
  windowed.estimator.window = 256;
  windowed.estimator.stride = 32;
  windowed.label = "last 256 tuples";
  ASSERT_TRUE(engine.Register(std::move(windowed)).ok());
}

void Feed(QueryEngine& engine, uint64_t begin, uint64_t end) {
  std::vector<ValueId> row(3);
  for (uint64_t i = begin; i < end; ++i) {
    row[0] = static_cast<ValueId>(i % 97);
    row[1] = static_cast<ValueId>((i % 7 == 0) ? i % 47 : row[0] % 13);
    row[2] = static_cast<ValueId>(i % 24);
    engine.ObserveTuple(TupleRef(row.data(), row.size()));
  }
}

void ExpectSameAnswers(const QueryEngine& restored,
                       const QueryEngine& uninterrupted) {
  ASSERT_EQ(restored.num_queries(), uninterrupted.num_queries());
  EXPECT_EQ(restored.tuples_seen(), uninterrupted.tuples_seen());
  for (QueryId id = 0; id < restored.num_queries(); ++id) {
    auto restored_answer = restored.Answer(id);
    auto expected_answer = uninterrupted.Answer(id);
    ASSERT_TRUE(restored_answer.ok()) << restored_answer.status();
    ASSERT_TRUE(expected_answer.ok());
    EXPECT_DOUBLE_EQ(*restored_answer, *expected_answer) << "query " << id;
  }
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(QueryCheckpointTest, FileRoundTripResumesExactly) {
  QueryEngine uninterrupted(TestSchema());
  RegisterSuite(uninterrupted);
  Feed(uninterrupted, 0, 1200);

  QueryEngine first(TestSchema());
  RegisterSuite(first);
  Feed(first, 0, 600);
  const std::string path = TempPath("engine_roundtrip.ckpt");
  ASSERT_TRUE(first.Checkpoint(path).ok());
  // A second checkpoint to the same path replaces it atomically.
  ASSERT_TRUE(first.Checkpoint(path).ok());

  QueryEngine resumed(TestSchema());
  Status restored = resumed.Restore(path);
  ASSERT_TRUE(restored.ok()) << restored;
  Feed(resumed, 600, 1200);
  ExpectSameAnswers(resumed, uninterrupted);
  std::remove(path.c_str());
}

TEST(QueryCheckpointTest, StringRoundTripPreservesState) {
  QueryEngine engine(TestSchema());
  RegisterSuite(engine);
  Feed(engine, 0, 500);
  auto snapshot = engine.SerializeState();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();

  QueryEngine restored(TestSchema());
  ASSERT_TRUE(restored.RestoreState(*snapshot).ok());
  ExpectSameAnswers(restored, engine);

  // Restored engines re-serialize to an equivalent snapshot: restoring
  // that one works too.
  auto second = restored.SerializeState();
  ASSERT_TRUE(second.ok());
  QueryEngine again(TestSchema());
  ASSERT_TRUE(again.RestoreState(*second).ok());
  ExpectSameAnswers(again, engine);
}

TEST(QueryCheckpointTest, ComplementQuerySurvivesRestore) {
  QueryEngine engine(TestSchema());
  ImplicationQuerySpec spec = BaseSpec();
  spec.estimator.kind = EstimatorKind::kExact;
  spec.complement = true;
  ASSERT_TRUE(engine.Register(std::move(spec)).ok());
  Feed(engine, 0, 800);
  auto snapshot = engine.SerializeState();
  ASSERT_TRUE(snapshot.ok());
  QueryEngine restored(TestSchema());
  ASSERT_TRUE(restored.RestoreState(*snapshot).ok());
  ExpectSameAnswers(restored, engine);
}

TEST(QueryCheckpointTest, RestoreRefusesSchemaMismatch) {
  QueryEngine engine(TestSchema());
  RegisterSuite(engine);
  Feed(engine, 0, 100);
  auto snapshot = engine.SerializeState();
  ASSERT_TRUE(snapshot.ok());

  // Renamed attribute.
  QueryEngine renamed(Schema({{"Src", 100}, {"Destination", 50},
                              {"Hour", 24}}));
  EXPECT_EQ(renamed.RestoreState(*snapshot).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(renamed.num_queries(), 0);

  // Same names, different declared cardinality (packing would differ).
  QueryEngine recarded(Schema({{"Source", 100}, {"Destination", 51},
                               {"Hour", 24}}));
  EXPECT_EQ(recarded.RestoreState(*snapshot).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(recarded.num_queries(), 0);
}

TEST(QueryCheckpointTest, RestoreRefusesNonFreshEngine) {
  QueryEngine source(TestSchema());
  RegisterSuite(source);
  auto snapshot = source.SerializeState();
  ASSERT_TRUE(snapshot.ok());

  QueryEngine busy(TestSchema());
  ImplicationQuerySpec spec = BaseSpec();
  spec.estimator.kind = EstimatorKind::kExact;
  ASSERT_TRUE(busy.Register(std::move(spec)).ok());
  EXPECT_EQ(busy.RestoreState(*snapshot).code(),
            StatusCode::kFailedPrecondition);
  // The pre-existing query is untouched.
  EXPECT_EQ(busy.num_queries(), 1);
}

TEST(QueryCheckpointTest, CorruptFileLeavesEngineFresh) {
  QueryEngine engine(TestSchema());
  RegisterSuite(engine);
  Feed(engine, 0, 300);
  const std::string path = TempPath("engine_corrupt.ckpt");
  ASSERT_TRUE(engine.Checkpoint(path).ok());

  auto bytes = ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::string corrupted = *bytes;
  corrupted[corrupted.size() / 2] ^= 0x20;
  ASSERT_TRUE(WriteFileAtomic(path, corrupted).ok());

  QueryEngine victim(TestSchema());
  EXPECT_FALSE(victim.Restore(path).ok());
  EXPECT_EQ(victim.num_queries(), 0);
  EXPECT_EQ(victim.tuples_seen(), 0u);

  // A failed restore leaves the engine fresh enough to try again with
  // the intact snapshot.
  auto intact = engine.SerializeState();
  ASSERT_TRUE(intact.ok());
  EXPECT_TRUE(victim.RestoreState(*intact).ok());
  ExpectSameAnswers(victim, engine);
  std::remove(path.c_str());
}

// Snapshot format version 2 dropped a field from the estimator config, so
// a version-1 engine checkpoint must be refused by the envelope's version
// check rather than misread at that field.
TEST(QueryCheckpointTest, VersionOneCheckpointRefusedEngineStaysFresh) {
  QueryEngine engine(TestSchema());
  RegisterSuite(engine);
  std::vector<ValueDictionary> dictionaries(3);
  dictionaries[0].GetOrAdd("10.0.0.1");
  ASSERT_TRUE(engine.SetDictionaries(std::move(dictionaries)).ok());
  Feed(engine, 0, 400);
  auto intact = engine.SerializeState();
  ASSERT_TRUE(intact.ok()) << intact.status();

  // The version varint sits after the 4-byte magic; set it to 1 and
  // re-seal the CRC trailer so only the version check can object.
  std::string stale = *intact;
  ASSERT_EQ(stale[4], static_cast<char>(kSnapshotFormatVersion));
  stale[4] = 1;
  const uint32_t crc = Crc32c(
      std::string_view(stale).substr(0, stale.size() - sizeof(uint32_t)));
  std::memcpy(stale.data() + stale.size() - sizeof(crc), &crc, sizeof(crc));
  const Status envelope =
      UnwrapSnapshot(stale, SnapshotKind::kQueryEngineV2).status();
  EXPECT_NE(envelope.message().find("unsupported format version 1"),
            std::string_view::npos)
      << envelope;

  QueryEngine victim(TestSchema());
  const Status restored = victim.RestoreState(stale);
  EXPECT_EQ(restored.code(), envelope.code());
  EXPECT_EQ(restored.message(), envelope.message());

  auto peeked = PeekCheckpointDictionaries(stale);
  ASSERT_FALSE(peeked.ok());
  EXPECT_EQ(peeked.status().message(), envelope.message());

  EXPECT_EQ(victim.num_queries(), 0);
  EXPECT_EQ(victim.num_synopses(), 0);
  EXPECT_EQ(victim.tuples_seen(), 0u);
  EXPECT_TRUE(victim.dictionaries().empty());
  ASSERT_TRUE(victim.RestoreState(*intact).ok());
  ExpectSameAnswers(victim, engine);
  EXPECT_EQ(victim.dictionaries().size(), 3u);
}

TEST(QueryCheckpointTest, MissingFileFails) {
  QueryEngine engine(TestSchema());
  EXPECT_FALSE(engine.Restore(TempPath("does_not_exist.ckpt")).ok());
  EXPECT_EQ(engine.num_queries(), 0);
}

TEST(QueryCheckpointTest, SchemaFingerprintIsSensitive) {
  const uint64_t base = SchemaFingerprint(TestSchema());
  EXPECT_EQ(base, SchemaFingerprint(TestSchema()));
  EXPECT_NE(base, SchemaFingerprint(Schema(
                      {{"Source", 100}, {"Destination", 50}, {"Hour", 12}})));
  EXPECT_NE(base, SchemaFingerprint(Schema(
                      {{"Source", 100}, {"Destination", 50}})));
  EXPECT_NE(base, SchemaFingerprint(Schema(
                      {{"source", 100}, {"Destination", 50}, {"Hour", 24}})));
  // Length-prefixed digest: shifting a character between adjacent names
  // must change the fingerprint.
  EXPECT_NE(SchemaFingerprint(Schema({{"ab", 1}, {"c", 1}})),
            SchemaFingerprint(Schema({{"a", 1}, {"bc", 1}})));
}

TEST(QueryCheckpointTest, AtomicWriteSurvivesExistingFile) {
  const std::string path = TempPath("atomic_overwrite.bin");
  ASSERT_TRUE(WriteFileAtomic(path, "first contents").ok());
  ASSERT_TRUE(WriteFileAtomic(path, "second").ok());
  auto readback = ReadFileToString(path);
  ASSERT_TRUE(readback.ok());
  EXPECT_EQ(*readback, "second");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace implistat
