#include "query/engine.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "core/ci.h"
#include "core/nips_ci_ensemble.h"
#include "stream/csv_io.h"

namespace implistat {
namespace {

// Table 1 from the paper.
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

class EngineTable1Test : public ::testing::Test {
 protected:
  void SetUp() override {
    auto table = ReadCsvString(kTable1);
    ASSERT_TRUE(table.ok());
    table_.emplace(std::move(table).value());
    engine_.emplace(table_->schema);
  }

  void Feed() {
    ASSERT_TRUE(table_->stream.Reset().ok());
    ASSERT_TRUE(engine_->ObserveStream(table_->stream).ok());
  }

  ImplicationQuerySpec ExactSpec(std::vector<std::string> a,
                                 std::vector<std::string> b, uint32_t k,
                                 uint64_t sigma, double gamma, uint32_t c,
                                 bool strict = true) {
    ImplicationQuerySpec spec;
    spec.a_attributes = std::move(a);
    spec.b_attributes = std::move(b);
    spec.conditions.max_multiplicity = k;
    spec.conditions.min_support = sigma;
    spec.conditions.min_top_confidence = gamma;
    spec.conditions.confidence_c = c;
    spec.conditions.strict_multiplicity = strict;
    spec.estimator.kind = EstimatorKind::kExact;
    return spec;
  }

  std::optional<CsvTable> table_;
  std::optional<QueryEngine> engine_;
};

TEST_F(EngineTable1Test, Section312WorkedExample) {
  // §3.1.2: services used by at most two different sources 80% of the
  // time, K = 5, σ = 1 → WWW and FTP qualify, P2P (top-2 = 75%) does not.
  auto id = engine_->Register(
      ExactSpec({"Service"}, {"Source"}, /*k=*/5, /*sigma=*/1,
                /*gamma=*/0.8, /*c=*/2));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 2.0);
}

TEST_F(EngineTable1Test, Section312LoweredConfidenceAdmitsP2P) {
  // "If we change the minimum top-confidence level to 75% then P2P is
  // valid and participates in the count."
  auto id = engine_->Register(
      ExactSpec({"Service"}, {"Source"}, 5, 1, 0.75, 2));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 3.0);
}

TEST_F(EngineTable1Test, Section312RaisedSupportDropsFtp) {
  // "If the user increases the minimum support to two tuples then the
  // pair (FTP → S2) is not valid."
  auto id = engine_->Register(
      ExactSpec({"Service"}, {"Source"}, 5, 2, 0.8, 2));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 1.0);  // WWW only
}

TEST_F(EngineTable1Test, DestinationImpliedBySingleSource) {
  // §1: D2 → S1 and D1 → S2; D3 is contacted by two sources.
  auto id = engine_->Register(
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 2.0);
}

TEST_F(EngineTable1Test, NoiseTolerantDestinationCountsD3) {
  // §1: with 80% tolerance D3 qualifies → count 3 (tracking-bound
  // multiplicity semantics).
  auto id = engine_->Register(ExactSpec({"Destination"}, {"Source"}, 1, 1,
                                        0.8, 1, /*strict=*/false));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 3.0);
}

TEST_F(EngineTable1Test, ConditionalImplicationDuringMorning) {
  // Table 2: "How many sources contact only one destination during the
  // morning?" — S1 contacts D2 and D3 in the morning, S2 only D1 → 1.
  int time_idx = table_->schema.IndexOf("Time").value();
  ValueId morning = table_->dictionaries[time_idx].Find("Morning").value();
  ImplicationQuerySpec spec =
      ExactSpec({"Source"}, {"Destination"}, 1, 1, 1.0, 1);
  spec.where = std::make_shared<EqualsPredicate>(time_idx, morning);
  auto id = engine_->Register(std::move(spec));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 1.0);
}

TEST_F(EngineTable1Test, CompoundImplicationOneTargetPerService) {
  // Table 2: "How many sources contact only one target per service?"
  // Expressed as A = {Source, Service} → B = {Destination}:
  // (S1,WWW)→{D2,D3} is out; (S1,P2P)→D3, (S2,FTP)→D1, (S2,P2P)→D1,
  // (S3,P2P)→D3 qualify → 4.
  auto id = engine_->Register(
      ExactSpec({"Source", "Service"}, {"Destination"}, 1, 1, 1.0, 1));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 4.0);
}

TEST_F(EngineTable1Test, ComplementQueryCountsNonImplications) {
  ImplicationQuerySpec spec =
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1);
  spec.complement = true;
  auto id = engine_->Register(std::move(spec));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 1.0);  // D3
}

TEST_F(EngineTable1Test, MultipleConcurrentQueries) {
  auto q1 = engine_->Register(
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1));
  auto q2 = engine_->Register(
      ExactSpec({"Service"}, {"Source"}, 5, 1, 0.8, 2));
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  Feed();
  EXPECT_EQ(engine_->num_queries(), 2);
  EXPECT_DOUBLE_EQ(engine_->Answer(*q1).value(), 2.0);
  EXPECT_DOUBLE_EQ(engine_->Answer(*q2).value(), 2.0);
  EXPECT_EQ(engine_->tuples_seen(), 8u);
}

TEST_F(EngineTable1Test, RegistrationValidation) {
  // Unknown attribute.
  EXPECT_FALSE(
      engine_->Register(ExactSpec({"Port"}, {"Source"}, 1, 1, 1.0, 1)).ok());
  // Overlapping A and B.
  EXPECT_FALSE(
      engine_->Register(ExactSpec({"Source"}, {"Source"}, 1, 1, 1.0, 1))
          .ok());
  // Empty attribute lists.
  EXPECT_FALSE(engine_->Register(ExactSpec({}, {"Source"}, 1, 1, 1.0, 1))
                   .ok());
  EXPECT_FALSE(
      engine_->Register(ExactSpec({"Source"}, {}, 1, 1, 1.0, 1)).ok());
  // Invalid conditions.
  EXPECT_FALSE(
      engine_->Register(ExactSpec({"Service"}, {"Source"}, 0, 1, 1.0, 1))
          .ok());
  // Complement with an estimator that cannot answer it.
  ImplicationQuerySpec spec =
      ExactSpec({"Service"}, {"Source"}, 1, 1, 1.0, 1);
  spec.complement = true;
  spec.estimator.kind = EstimatorKind::kIlc;
  EXPECT_FALSE(engine_->Register(std::move(spec)).ok());
}

TEST_F(EngineTable1Test, ObserveStreamRejectsWidthMismatch) {
  Schema narrow;
  ASSERT_TRUE(narrow.AddAttribute("OnlyOne", 2).ok());
  VectorStream wrong(narrow, {0, 1, 0});
  EXPECT_FALSE(engine_->ObserveStream(wrong).ok());
}

TEST_F(EngineTable1Test, ConditionalQueryOnlyCountsMatchingTuples) {
  // The WHERE filter gates the estimator entirely: a query conditioned on
  // a value that never appears answers 0.
  int time_idx = table_->schema.IndexOf("Time").value();
  ImplicationQuerySpec spec =
      ExactSpec({"Source"}, {"Destination"}, 1, 1, 1.0, 1);
  spec.where = std::make_shared<EqualsPredicate>(
      time_idx, static_cast<ValueId>(999));  // unseen value id
  auto id = engine_->Register(std::move(spec));
  ASSERT_TRUE(id.ok());
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 0.0);
}

TEST_F(EngineTable1Test, NipsEstimatorAnswersToyQueriesPlausibly) {
  // On an 8-tuple stream the sketch path must at least produce small
  // non-negative numbers through the full engine pipeline.
  ImplicationQuerySpec spec =
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1);
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.nips.seed = 3;
  auto id = engine_->Register(std::move(spec));
  ASSERT_TRUE(id.ok());
  Feed();
  double answer = engine_->Answer(*id).value();
  EXPECT_GE(answer, 0.0);
  EXPECT_LE(answer, 30.0);
}

TEST_F(EngineTable1Test, AnswerUnknownIdFails) {
  EXPECT_FALSE(engine_->Answer(0).ok());
  EXPECT_FALSE(engine_->Answer(-1).ok());
}

TEST_F(EngineTable1Test, EstimatorAccessor) {
  auto id = engine_->Register(
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1));
  ASSERT_TRUE(id.ok());
  Feed();
  auto est = engine_->Estimator(*id);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ((*est)->name(), "Exact");
}

TEST_F(EngineTable1Test, RegisterSqlEndToEnd) {
  auto id = engine_->RegisterSql(
      "SELECT COUNT(DISTINCT Service) FROM traffic "
      "WHERE Service IMPLIES Source "
      "WITH K = 5, CONFIDENCE = 0.8, C = 2, ESTIMATOR = EXACT",
      &table_->dictionaries);
  ASSERT_TRUE(id.ok()) << id.status();
  Feed();
  EXPECT_DOUBLE_EQ(engine_->Answer(*id).value(), 2.0);
}

TEST_F(EngineTable1Test, RegisterSqlRejectsBadQueries) {
  EXPECT_FALSE(engine_->RegisterSql("SELECT nonsense").ok());
  EXPECT_FALSE(engine_
                   ->RegisterSql(
                       "SELECT COUNT(DISTINCT Port) FROM t WHERE Port "
                       "IMPLIES Source",
                       &table_->dictionaries)
                   .ok());
}

TEST_F(EngineTable1Test, WindowedQueryRegistersAndAnswers) {
  ImplicationQuerySpec spec =
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1);
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.window = 400;
  spec.estimator.stride = 100;
  auto id = engine_->Register(std::move(spec));
  ASSERT_TRUE(id.ok()) << id.status();
  Feed();
  EXPECT_TRUE(engine_->Answer(*id).ok());
  EXPECT_EQ((*engine_->Estimator(*id))->name(), "NIPS/CI-sliding");
}

TEST_F(EngineTable1Test, WindowedQueryRejectsNonNipsEstimators) {
  ImplicationQuerySpec spec =
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1);
  spec.estimator.kind = EstimatorKind::kExact;
  spec.estimator.window = 400;
  EXPECT_FALSE(engine_->Register(std::move(spec)).ok());
}

TEST_F(EngineTable1Test, WindowedQueryRejectsMisalignedStride) {
  ImplicationQuerySpec spec =
      ExactSpec({"Destination"}, {"Source"}, 1, 1, 1.0, 1);
  spec.estimator.kind = EstimatorKind::kNipsCi;
  spec.estimator.window = 400;
  spec.estimator.stride = 300;  // does not divide the window
  EXPECT_FALSE(engine_->Register(std::move(spec)).ok());
}

TEST_F(EngineTable1Test, AllEstimatorKindsRegister) {
  for (EstimatorKind kind :
       {EstimatorKind::kNipsCi, EstimatorKind::kExact,
        EstimatorKind::kDistinctSampling, EstimatorKind::kIlc,
        EstimatorKind::kIss}) {
    ImplicationQuerySpec spec =
        ExactSpec({"Service"}, {"Source"}, 5, 1, 0.8, 2);
    spec.estimator.kind = kind;
    auto id = engine_->Register(std::move(spec));
    ASSERT_TRUE(id.ok());
  }
  Feed();
  for (QueryId id = 0; id < engine_->num_queries(); ++id) {
    EXPECT_TRUE(engine_->Answer(id).ok());
  }
}

// A complement (~S) answer carries ~S's own error bar, not S's: NIPS/CI's
// jackknife computes both, and AnswerEx must serve the one that matches
// the estimate.
TEST(EngineStdErrorTest, ComplementAnswersCarryTheNonImplicationBar) {
  QueryEngine engine(Schema({{"Source", 4096}, {"Destination", 64}}));
  auto spec = [](EstimatorKind kind, bool complement) {
    ImplicationQuerySpec spec;
    spec.a_attributes = {"Source"};
    spec.b_attributes = {"Destination"};
    spec.conditions.max_multiplicity = 1;
    spec.conditions.min_support = 1;
    spec.conditions.min_top_confidence = 1.0;
    spec.conditions.confidence_c = 1;
    spec.estimator.kind = kind;
    spec.complement = complement;
    return spec;
  };
  const QueryId nips_s = engine.Register(spec(EstimatorKind::kNipsCi, false))
                             .value();
  const QueryId nips_not_s =
      engine.Register(spec(EstimatorKind::kNipsCi, true)).value();
  const QueryId exact_not_s =
      engine.Register(spec(EstimatorKind::kExact, true)).value();
  const QueryId ds_not_s =
      engine.Register(spec(EstimatorKind::kDistinctSampling, true)).value();
  // 3000 sources; every third one talks to many destinations.
  for (uint64_t i = 0; i < 30000; ++i) {
    const ValueId source = static_cast<ValueId>((i * 7919) % 3000);
    const ValueId destination = static_cast<ValueId>(
        source % 3 == 0 ? i % 64 : source % 64);
    const std::vector<ValueId> row = {source, destination};
    engine.ObserveTuple(TupleRef(row.data(), row.size()));
  }

  const ImplicationEstimator* served = engine.Estimator(nips_not_s).value();
  const auto* nips = dynamic_cast<const NipsCi*>(served);
  ASSERT_NE(nips, nullptr);
  const CiEstimate bars = CiEnsembleStdError(
      std::span<const Nips>(&nips->bitmap(0), nips->num_bitmaps()));
  ASSERT_GT(bars.non_implication, 0.0);

  const QueryAnswer not_s = engine.AnswerEx(nips_not_s).value();
  const QueryAnswer s = engine.AnswerEx(nips_s).value();
  EXPECT_EQ(not_s.estimate, nips->EstimateNonImplicationCount());
  EXPECT_EQ(not_s.std_error, bars.non_implication);  // bit for bit
  EXPECT_EQ(s.std_error, bars.implication);
  EXPECT_NE(not_s.std_error, s.std_error);

  EXPECT_EQ(engine.AnswerEx(exact_not_s).value().std_error, 0.0);
  EXPECT_EQ(engine.AnswerEx(ds_not_s).value().std_error, -1.0);
}

}  // namespace
}  // namespace implistat
