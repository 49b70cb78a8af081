#include "query/parser.h"

#include <gtest/gtest.h>

#include "query/engine.h"
#include "stream/csv_io.h"

namespace implistat {
namespace {

TEST(ParserTest, MinimalQuery) {
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Destination) FROM traffic "
      "WHERE Destination IMPLIES Source");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->count_attributes,
            std::vector<std::string>{"Destination"});
  EXPECT_EQ(parsed->relation, "traffic");
  EXPECT_EQ(parsed->a_attributes, std::vector<std::string>{"Destination"});
  EXPECT_EQ(parsed->b_attributes, std::vector<std::string>{"Source"});
  EXPECT_FALSE(parsed->complement);
  EXPECT_TRUE(parsed->conditions.empty());
  // Defaults.
  EXPECT_EQ(parsed->implication.max_multiplicity, 1u);
  EXPECT_EQ(parsed->implication.min_support, 1u);
  EXPECT_DOUBLE_EQ(parsed->implication.min_top_confidence, 1.0);
  EXPECT_EQ(parsed->estimator, EstimatorKind::kNipsCi);
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  auto parsed = ParseImplicationQuery(
      "select count(distinct A) from R where A implies B");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->a_attributes, std::vector<std::string>{"A"});
}

TEST(ParserTest, WithClauseParameters) {
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Service) FROM t WHERE Service IMPLIES Source "
      "WITH K = 5, SUPPORT = 2, CONFIDENCE = 0.8, C = 2, STRICT = false, "
      "ESTIMATOR = EXACT");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->implication.max_multiplicity, 5u);
  EXPECT_EQ(parsed->implication.min_support, 2u);
  EXPECT_DOUBLE_EQ(parsed->implication.min_top_confidence, 0.8);
  EXPECT_EQ(parsed->implication.confidence_c, 2u);
  EXPECT_FALSE(parsed->implication.strict_multiplicity);
  EXPECT_EQ(parsed->estimator, EstimatorKind::kExact);
}

TEST(ParserTest, ParameterAliases) {
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B "
      "WITH MULTIPLICITY = 3, SIGMA = 10, GAMMA = 0.9, TOP = 2");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->implication.max_multiplicity, 3u);
  EXPECT_EQ(parsed->implication.min_support, 10u);
  EXPECT_DOUBLE_EQ(parsed->implication.min_top_confidence, 0.9);
  EXPECT_EQ(parsed->implication.confidence_c, 2u);
}

TEST(ParserTest, CompoundAttributeLists) {
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Source, Service) FROM t "
      "WHERE Source, Service IMPLIES Destination");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->a_attributes,
            (std::vector<std::string>{"Source", "Service"}));
}

TEST(ParserTest, WindowParameters) {
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B "
      "WITH WINDOW = 10000, STRIDE = 2500");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->window, 10000u);
  EXPECT_EQ(parsed->stride, 2500u);
}

TEST(ParserTest, NotImpliesIsComplement) {
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT A) FROM r WHERE NOT A IMPLIES B");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->complement);
}

TEST(ParserTest, ConditionsCollected) {
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES "
      "Destination AND Time = 'Morning' AND Service != 'P2P'");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->conditions.size(), 2u);
  EXPECT_EQ(parsed->conditions[0].attribute, "Time");
  EXPECT_EQ(parsed->conditions[0].value, "Morning");
  EXPECT_FALSE(parsed->conditions[0].negated);
  EXPECT_TRUE(parsed->conditions[0].quoted);
  EXPECT_EQ(parsed->conditions[1].attribute, "Service");
  EXPECT_TRUE(parsed->conditions[1].negated);
}

TEST(ParserTest, SyntaxErrors) {
  const char* bad_queries[] = {
      "",
      "SELECT COUNT(DISTINCT A) FROM r",                 // no WHERE
      "SELECT COUNT(DISTINCT A) WHERE A IMPLIES B",      // no FROM
      "SELECT COUNT DISTINCT A FROM r WHERE A IMPLIES B",  // no parens
      "SELECT COUNT(DISTINCT A) FROM r WHERE A B",       // no IMPLIES
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B garbage",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH K =",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH K = x",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH BOGUS = 1",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH K = 0",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH K = -1",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH SUPPORT = -1",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH WINDOW = -1",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH K = 4294967297",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B WITH C = 4294967298",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B AND T = 'x",
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B AND T ! 3",
  };
  for (const char* q : bad_queries) {
    EXPECT_FALSE(ParseImplicationQuery(q).ok()) << q;
  }
}

// Rendered caret diagnostics, pinned verbatim: position, offending
// source line, and caret width are part of the CLI contract.
TEST(ParserTest, GoldenCaretDiagnostics) {
  auto trailing = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B garbage");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(std::string(trailing.status().message()),
            "query parse error at 1:51: trailing tokens from 'garbage'\n"
            "  SELECT COUNT(DISTINCT A) FROM r WHERE A IMPLIES B garbage\n"
            "                                                    ^^^^^^^");

  auto missing = ParseImplicationQuery("SELECT COUNT(DISTINCT A) FROM r");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(std::string(missing.status().message()),
            "query parse error at 1:32: expected WHERE, found end of input\n"
            "  SELECT COUNT(DISTINCT A) FROM r\n"
            "                                 ^");
}

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

TEST(BindTest, EndToEndOverTable1) {
  auto table = ReadCsvString(kTable1);
  ASSERT_TRUE(table.ok());
  // The §3.1.2 worked example, straight from query text to answer.
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Service) FROM traffic "
      "WHERE Service IMPLIES Source "
      "WITH K = 5, SUPPORT = 1, CONFIDENCE = 0.8, C = 2, "
      "ESTIMATOR = EXACT");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto spec = BindQuery(*parsed, table->schema, &table->dictionaries);
  ASSERT_TRUE(spec.ok()) << spec.status();
  QueryEngine engine(table->schema);
  auto id = engine.Register(std::move(spec).value());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.ObserveStream(table->stream).ok());
  EXPECT_DOUBLE_EQ(engine.Answer(*id).value(), 2.0);
}

TEST(BindTest, ConditionalQueryOverTable1) {
  auto table = ReadCsvString(kTable1);
  ASSERT_TRUE(table.ok());
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Source) FROM traffic "
      "WHERE Source IMPLIES Destination AND Time = 'Morning' "
      "WITH ESTIMATOR = EXACT");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  auto spec = BindQuery(*parsed, table->schema, &table->dictionaries);
  ASSERT_TRUE(spec.ok()) << spec.status();
  QueryEngine engine(table->schema);
  auto id = engine.Register(std::move(spec).value());
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.ObserveStream(table->stream).ok());
  EXPECT_DOUBLE_EQ(engine.Answer(*id).value(), 1.0);
}

TEST(BindTest, CountMustMatchImpliesLhs) {
  auto table = ReadCsvString(kTable1);
  ASSERT_TRUE(table.ok());
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Source) FROM t WHERE Service IMPLIES "
      "Destination");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(BindQuery(*parsed, table->schema, &table->dictionaries).ok());
}

TEST(BindTest, UnknownAttributeRejected) {
  auto table = ReadCsvString(kTable1);
  ASSERT_TRUE(table.ok());
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES "
      "Destination AND Port = '80'");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(BindQuery(*parsed, table->schema, &table->dictionaries).ok());
}

TEST(BindTest, UnknownValueRejected) {
  auto table = ReadCsvString(kTable1);
  ASSERT_TRUE(table.ok());
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT Source) FROM t WHERE Source IMPLIES "
      "Destination AND Time = 'Midnight'");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(BindQuery(*parsed, table->schema, &table->dictionaries).ok());
}

TEST(BindTest, NumericValueWithoutDictionary) {
  Schema schema;
  ASSERT_TRUE(schema.AddAttribute("X", 100).ok());
  ASSERT_TRUE(schema.AddAttribute("Y", 100).ok());
  ASSERT_TRUE(schema.AddAttribute("Z", 100).ok());
  auto parsed = ParseImplicationQuery(
      "SELECT COUNT(DISTINCT X) FROM t WHERE X IMPLIES Y AND Z = 7");
  ASSERT_TRUE(parsed.ok());
  auto spec = BindQuery(*parsed, schema, nullptr);
  ASSERT_TRUE(spec.ok()) << spec.status();
  EXPECT_NE(spec->where, nullptr);
}

}  // namespace
}  // namespace implistat
