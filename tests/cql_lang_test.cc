// Frontend tests for the trigger language: lexer spans, parser shape,
// golden caret diagnostics from every stage, the nesting bound,
// known-answer evaluations of checked trees, and fuzzed expressions
// (print -> parse -> compile -> evaluate against a reference AST
// interpreter).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "cql/lexer.h"
#include "cql/parser.h"
#include "cql/sema.h"
#include "cql/trigger_engine.h"
#include "util/random.h"

namespace implistat::cql {
namespace {

class TwoLabelCatalog : public LabelCatalog {
 public:
  bool HasLabel(std::string_view label) const override {
    return label == "a" || label == "b";
  }
};

// --- lexer -----------------------------------------------------------------

TEST(CqlLexerTest, TokensCarrySpans) {
  Diagnostic diag;
  auto tokens = Tokenize("a >= 10.5", &diag);
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  ASSERT_EQ(tokens->size(), 4u);  // a, >=, 10.5, end
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdent);
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[0].span.offset, 0u);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kPunct);
  EXPECT_EQ((*tokens)[1].text, ">=");
  EXPECT_EQ((*tokens)[1].span.offset, 2u);
  EXPECT_EQ((*tokens)[1].span.length, 2u);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kNumber);
  EXPECT_DOUBLE_EQ((*tokens)[2].number, 10.5);
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kEnd);
}

TEST(CqlLexerTest, KeywordsAreCaseInsensitive) {
  Diagnostic diag;
  auto tokens = Tokenize("create TRIGGER WhEn", &diag);
  ASSERT_TRUE(tokens.ok());
  EXPECT_TRUE((*tokens)[0].IsKeyword("CREATE"));
  EXPECT_TRUE((*tokens)[1].IsKeyword("trigger"));
  EXPECT_TRUE((*tokens)[2].IsKeyword("WHEN"));
  EXPECT_FALSE((*tokens)[2].IsKeyword("WHENX"));
}

TEST(CqlLexerTest, UnexpectedCharacterDiagnostic) {
  Diagnostic diag;
  auto tokens = Tokenize("a > #", &diag);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(diag.message, "unexpected character '#'");
  EXPECT_EQ(diag.span.offset, 4u);
}

TEST(CqlLexerTest, UnterminatedStringDiagnostic) {
  Diagnostic diag;
  auto tokens = Tokenize("x = 'oops", &diag);
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(diag.message, "unterminated string literal");
}

// --- parser ----------------------------------------------------------------

TEST(CqlParserTest, FullStatementShape) {
  auto decl = ParseCreateTrigger(
      "CREATE TRIGGER hot ON a WHEN DELTA(a) > 2 * MOVING_AVG(a, 8) "
      "EVERY 500 TUPLES COOLDOWN 2000");
  ASSERT_TRUE(decl.ok()) << decl.status();
  EXPECT_EQ(decl->name, "hot");
  EXPECT_EQ(decl->on_label, "a");
  EXPECT_EQ(decl->every_tuples, 500u);
  EXPECT_EQ(decl->cooldown_tuples, 2000u);
  ASSERT_NE(decl->condition, nullptr);
  EXPECT_EQ(decl->condition->kind, ExprKind::kBinary);
  EXPECT_EQ(decl->condition->binary_op, BinaryOp::kGt);
  EXPECT_EQ(decl->condition->lhs->kind, ExprKind::kDelta);
  EXPECT_EQ(decl->condition->lhs->label, "a");
  const Expr& product = *decl->condition->rhs;
  EXPECT_EQ(product.kind, ExprKind::kBinary);
  EXPECT_EQ(product.binary_op, BinaryOp::kMul);
  EXPECT_EQ(product.rhs->kind, ExprKind::kMovingAvg);
  EXPECT_EQ(product.rhs->window, 8u);
}

TEST(CqlParserTest, ClausesAreOptional) {
  auto decl = ParseCreateTrigger("CREATE TRIGGER t ON b WHEN b > 1");
  ASSERT_TRUE(decl.ok()) << decl.status();
  EXPECT_EQ(decl->every_tuples, 0u);    // engine default fills in
  EXPECT_EQ(decl->cooldown_tuples, 0u);  // no cooldown
}

// Statement terminators are script syntax: SplitStatements strips them
// (and comments) before the parser, which itself rejects a stray `;`.
TEST(CqlParserTest, SemicolonsBelongToSplitStatementsNotTheParser) {
  EXPECT_FALSE(ParseCreateTrigger("CREATE TRIGGER t ON b WHEN b > 1;").ok());
  std::vector<std::string> statements = SplitStatements(
      "-- alert rules\n"
      "CREATE TRIGGER t ON b WHEN b > 1;\n"
      "CREATE TRIGGER u ON b WHEN b > 2; -- ';' in a comment\n");
  ASSERT_EQ(statements.size(), 2u);
  for (const std::string& statement : statements) {
    EXPECT_TRUE(ParseCreateTrigger(statement).ok()) << statement;
  }
  EXPECT_TRUE(SplitStatements("  -- nothing but comments\n ; ; ").empty());
}

TEST(CqlParserTest, ValueKeywordRefersToSubjectQuery) {
  auto decl = ParseCreateTrigger("CREATE TRIGGER t ON a WHEN VALUE >= 10");
  ASSERT_TRUE(decl.ok()) << decl.status();
  EXPECT_EQ(decl->condition->lhs->kind, ExprKind::kLabelRef);
  EXPECT_TRUE(decl->condition->lhs->label_is_value);
}

TEST(CqlParserTest, GoldenCaretDiagnosticForMissingKeyword) {
  auto decl = ParseCreateTrigger("CREATE TRIGER t ON a WHEN a > 1");
  ASSERT_FALSE(decl.ok());
  EXPECT_EQ(std::string(decl.status().message()),
            "trigger parse error at 1:8: expected TRIGGER, found 'TRIGER'\n"
            "  CREATE TRIGER t ON a WHEN a > 1\n"
            "         ^^^^^^");
}

TEST(CqlParserTest, GoldenCaretDiagnosticAtEndOfInput) {
  auto decl = ParseCreateTrigger("CREATE TRIGGER t ON a WHEN");
  ASSERT_FALSE(decl.ok());
  EXPECT_EQ(std::string(decl.status().message()),
            "trigger parse error at 1:27: expected an expression, found end "
            "of input\n"
            "  CREATE TRIGGER t ON a WHEN\n"
            "                            ^");
}

TEST(CqlParserTest, GoldenCaretDiagnosticForTrailingInput) {
  auto decl = ParseCreateTrigger("CREATE TRIGGER t ON a WHEN a > 1 banana");
  ASSERT_FALSE(decl.ok());
  EXPECT_EQ(std::string(decl.status().message()),
            "trigger parse error at 1:34: trailing input after trigger "
            "statement\n"
            "  CREATE TRIGGER t ON a WHEN a > 1 banana\n"
            "                                   ^^^^^^");
}

TEST(CqlParserTest, EveryCountMustBePositive) {
  auto decl =
      ParseCreateTrigger("CREATE TRIGGER t ON a WHEN a > 1 EVERY 0 TUPLES");
  ASSERT_FALSE(decl.ok());
  EXPECT_NE(std::string(decl.status().message()).find("positive"),
            std::string::npos);
}

// `n` nested parentheses around `inner`.
std::string Nested(int n, const std::string& inner) {
  return std::string(n, '(') + inner + std::string(n, ')');
}

// `a+a+...+a` with `terms` terms.
std::string Chain(int terms) {
  std::string out = "a";
  for (int i = 1; i < terms; ++i) out += "+a";
  return out;
}

TEST(CqlParserTest, ExpressionsNestAtMost64Levels) {
  static_assert(kMaxExprDepth == 64);
  // A bare expression's root is level 0: 64 parentheses or 64 unary
  // operators put `a` at level 64.
  EXPECT_TRUE(ParseExpression(Nested(64, "a")).ok());
  std::string negations;
  for (int i = 0; i < 64; ++i) negations += "- ";
  EXPECT_TRUE(ParseExpression(negations + "a").ok());
  EXPECT_FALSE(ParseExpression("- " + negations + "a").ok());
  auto deep = ParseExpression(Nested(65, "a"));
  ASSERT_FALSE(deep.ok());
  const std::string message(deep.status().message());
  EXPECT_EQ(message.substr(0, message.find('\n')),
            "trigger parse error at 1:65: expression nested deeper than 64 "
            "levels");
  EXPECT_EQ(message.substr(message.rfind('\n') + 1),
            std::string(2 + 64, ' ') + "^");  // under the 65th '('

  // In a trigger the WHEN comparison is a level of its own, and each
  // '+' of a chain pushes the terms before it one level down.
  TwoLabelCatalog catalog;
  auto when = [&](const std::string& expr) {
    return CompileTrigger("CREATE TRIGGER t ON a WHEN " + expr, catalog, 1024);
  };
  EXPECT_TRUE(when(Nested(63, "a") + " > 1").ok());
  EXPECT_FALSE(when(Nested(64, "a") + " > 1").ok());
  EXPECT_TRUE(when(Chain(64) + " > 1").ok());
  auto chain = when(Chain(65) + " > 1");
  ASSERT_FALSE(chain.ok());
  EXPECT_NE(std::string(chain.status().message())
                .find("expression nested deeper than 64 levels"),
            std::string::npos)
      << chain.status();
}

// Statements may be up to 64 KB: ones nested far past the bound are
// refused with a diagnostic instead of overflowing the stack.
TEST(CqlParserTest, HostileNestingIsRefusedNotOverflowed) {
  auto parens = ParseCreateTrigger("CREATE TRIGGER t ON a WHEN " +
                                   Nested(10000, "a") + " > 1");
  ASSERT_FALSE(parens.ok());
  EXPECT_NE(std::string(parens.status().message()).find("deeper than 64"),
            std::string::npos);
  TwoLabelCatalog catalog;
  auto chain = CompileTrigger(
      "CREATE TRIGGER t ON a WHEN " + Chain(30000) + " > 1", catalog, 1024);
  ASSERT_FALSE(chain.ok());
  EXPECT_NE(std::string(chain.status().message()).find("deeper than 64"),
            std::string::npos);
}

// --- sema ------------------------------------------------------------------

TEST(CqlSemaTest, GoldenCaretDiagnosticForUnknownLabel) {
  TwoLabelCatalog catalog;
  auto compiled = CompileTrigger("CREATE TRIGGER t ON a WHEN laoyl > 10",
                                 catalog, 1024);
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(std::string(compiled.status().message()),
            "trigger error at 1:28: unknown query label 'laoyl' (no active "
            "query carries it)\n"
            "  CREATE TRIGGER t ON a WHEN laoyl > 10\n"
            "                             ^^^^^");
}

TEST(CqlSemaTest, WhenMustBeBoolean) {
  TwoLabelCatalog catalog;
  auto compiled =
      CompileTrigger("CREATE TRIGGER t ON a WHEN a + 1", catalog, 1024);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(
      std::string(compiled.status().message()).find("must be boolean"),
      std::string::npos);
}

TEST(CqlSemaTest, ComparisonChainsDiagnoseCleanly) {
  TwoLabelCatalog catalog;
  auto compiled =
      CompileTrigger("CREATE TRIGGER t ON a WHEN 1 < a < 3", catalog, 1024);
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(std::string(compiled.status().message()).find("use AND"),
            std::string::npos);
}

TEST(CqlSemaTest, MovingAvgWindowBounds) {
  TwoLabelCatalog catalog;
  auto zero = CompileTrigger(
      "CREATE TRIGGER t ON a WHEN MOVING_AVG(a, 0) > 1", catalog, 1024);
  EXPECT_FALSE(zero.ok());
  auto huge = CompileTrigger(
      "CREATE TRIGGER t ON a WHEN MOVING_AVG(a, 1000000) > 1", catalog, 1024);
  EXPECT_FALSE(huge.ok());
}

TEST(CqlSemaTest, SlotsAreDeduplicated) {
  TwoLabelCatalog catalog;
  auto compiled = CompileTrigger(
      "CREATE TRIGGER t ON a WHEN a > 1 AND a > 2 AND DELTA(b) > 0 "
      "AND DELTA(b) < 5",
      catalog, 1024);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->slots.size(), 2u);  // a, DELTA(b)
}

// Trigger checkpoints match saved slot state to slots by index, so the
// numbering (first occurrence, left to right) is part of their format.
TEST(CqlSemaTest, SlotsAreNumberedInOrderOfFirstOccurrence) {
  TwoLabelCatalog catalog;
  auto compiled = CompileTrigger(
      "CREATE TRIGGER t ON a WHEN DELTA(b) > 0 AND DELTA(a) > 0 "
      "AND MOVING_AVG(b, 4) > MOVING_AVG(a, 4) AND b > a AND DELTA(b) < 9",
      catalog, 1024);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  const std::vector<SlotSpec> expected = {
      {SlotKind::kDelta, "b", 0},     {SlotKind::kDelta, "a", 0},
      {SlotKind::kMovingAvg, "b", 4}, {SlotKind::kMovingAvg, "a", 4},
      {SlotKind::kEstimate, "b", 0},  {SlotKind::kEstimate, "a", 0},
  };
  EXPECT_EQ(compiled->slots, expected);
}

TEST(CqlSemaTest, DefaultEveryFillsIn) {
  TwoLabelCatalog catalog;
  auto compiled =
      CompileTrigger("CREATE TRIGGER t ON a WHEN a > 1", catalog, 4096);
  ASSERT_TRUE(compiled.ok()) << compiled.status();
  EXPECT_EQ(compiled->every_tuples, 4096u);
}

// --- evaluator known-answer ------------------------------------------------

// Slot inputs for labels {a, b}: a = 10, b = 3, MOVING_AVG(x, w) = x - 2,
// DELTA(x) = 2.
std::vector<double> SlotValues(const CompiledTrigger& compiled) {
  std::vector<double> values;
  for (const SlotSpec& slot : compiled.slots) {
    double base = slot.label == "a" ? 10.0 : 3.0;
    switch (slot.kind) {
      case SlotKind::kEstimate: values.push_back(base); break;
      case SlotKind::kMovingAvg: values.push_back(base - 2.0); break;
      case SlotKind::kDelta: values.push_back(2.0); break;
    }
  }
  return values;
}

// Compiles `WHEN <expr>` against labels {a, b} and evaluates its checked
// tree with the SlotValues inputs.
double EvalWhen(const std::string& expr) {
  TwoLabelCatalog catalog;
  auto compiled = CompileTrigger("CREATE TRIGGER t ON a WHEN " + expr,
                                 catalog, 1024);
  EXPECT_TRUE(compiled.ok()) << expr << ": " << compiled.status();
  if (!compiled.ok()) return NAN;
  return EvalExpr(*compiled->condition, SlotValues(*compiled).data());
}

TEST(CqlVmTest, KnownAnswers) {
  EXPECT_EQ(EvalWhen("2 + 3 * 4 = 14"), 1.0);             // precedence
  EXPECT_EQ(EvalWhen("(2 + 3) * 4 = 20"), 1.0);           // parens
  EXPECT_EQ(EvalWhen("10 - 4 - 3 = 3"), 1.0);             // left assoc
  EXPECT_EQ(EvalWhen("7 % 4 = 3"), 1.0);
  EXPECT_EQ(EvalWhen("-a = -10"), 1.0);
  EXPECT_EQ(EvalWhen("a / 4 = 2.5"), 1.0);
  EXPECT_EQ(EvalWhen("a > b"), 1.0);
  EXPECT_EQ(EvalWhen("a < b"), 0.0);
  EXPECT_EQ(EvalWhen("a >= 10 AND b <= 3"), 1.0);
  EXPECT_EQ(EvalWhen("a < 10 OR b = 3"), 1.0);
  EXPECT_EQ(EvalWhen("NOT (a = 10)"), 0.0);
  EXPECT_EQ(EvalWhen("a != 10"), 0.0);
  EXPECT_EQ(EvalWhen("VALUE = 10"), 1.0);  // VALUE = the ON label's estimate
  EXPECT_EQ(EvalWhen("MOVING_AVG(a, 4) = 8"), 1.0);
  EXPECT_EQ(EvalWhen("DELTA(a) = 2"), 1.0);
  EXPECT_EQ(EvalWhen("DELTA(b) + MOVING_AVG(b, 2) = 3"), 1.0);
  EXPECT_EQ(EvalWhen("a > b AND b > 0 OR a = 0"), 1.0);
}

TEST(CqlVmTest, ComparisonsInvolvingNanAreFalse) {
  // 0 % 0 is NaN; every comparison against it must come out false, and
  // NOT of a NaN-condition is true (NaN is not truthy).
  EXPECT_EQ(EvalWhen("0 % 0 = 0 % 0"), 0.0);
  EXPECT_EQ(EvalWhen("NOT (0 % 0 > 0)"), 1.0);
}

// --- fuzzed expressions ----------------------------------------------------

// Reference interpreter over the parsed (unchecked) AST with the
// evaluator's semantics; slot inputs come from the same fixed assignment
// SlotValues uses.
double Reference(const Expr& e) {
  auto slot_value = [](const Expr& x) {
    double base = (x.label == "a" || x.label_is_value) ? 10.0 : 3.0;
    if (x.kind == ExprKind::kMovingAvg) return base - 2.0;
    if (x.kind == ExprKind::kDelta) return 2.0;
    return base;
  };
  switch (e.kind) {
    case ExprKind::kLiteral: return e.literal;
    case ExprKind::kLabelRef:
    case ExprKind::kMovingAvg:
    case ExprKind::kDelta: return slot_value(e);
    case ExprKind::kUnary: {
      double v = Reference(*e.lhs);
      return e.unary_op == UnaryOp::kNeg ? -v : (Truthy(v) ? 0.0 : 1.0);
    }
    case ExprKind::kBinary: {
      double l = Reference(*e.lhs);
      double r = Reference(*e.rhs);
      switch (e.binary_op) {
        case BinaryOp::kAdd: return l + r;
        case BinaryOp::kSub: return l - r;
        case BinaryOp::kMul: return l * r;
        case BinaryOp::kDiv: return l / r;
        case BinaryOp::kMod: return std::fmod(l, r);
        case BinaryOp::kLt: return l < r ? 1.0 : 0.0;
        case BinaryOp::kLe: return l <= r ? 1.0 : 0.0;
        case BinaryOp::kGt: return l > r ? 1.0 : 0.0;
        case BinaryOp::kGe: return l >= r ? 1.0 : 0.0;
        case BinaryOp::kEq: return l == r ? 1.0 : 0.0;
        case BinaryOp::kNe: return l != r ? 1.0 : 0.0;
        case BinaryOp::kAnd: return Truthy(l) && Truthy(r) ? 1.0 : 0.0;
        case BinaryOp::kOr: return Truthy(l) || Truthy(r) ? 1.0 : 0.0;
      }
      return 0.0;
    }
  }
  return 0.0;
}

// Random type-correct expression source; fully parenthesized so printing
// and reparsing cannot disagree on precedence.
std::string GenNumeric(Rng& rng, int depth) {
  switch (rng.Uniform(depth <= 0 ? 3 : 6)) {
    case 0: return std::to_string(static_cast<int>(rng.Uniform(20)));
    case 1: return (rng.Uniform(2) != 0) ? "a" : "b";
    case 2: return (rng.Uniform(2) != 0) ? "DELTA(a)" : "MOVING_AVG(b, 4)";
    case 3: return "(-" + GenNumeric(rng, depth - 1) + ")";
    case 4:
    default: {
      const char* ops[] = {"+", "-", "*", "/", "%"};
      return "(" + GenNumeric(rng, depth - 1) + " " + ops[rng.Uniform(5)] +
             " " + GenNumeric(rng, depth - 1) + ")";
    }
  }
}

std::string GenBoolean(Rng& rng, int depth) {
  if (depth <= 0 || rng.Uniform(3) == 0) {
    const char* cmps[] = {"<", "<=", ">", ">=", "=", "!="};
    return "(" + GenNumeric(rng, depth) + " " + cmps[rng.Uniform(6)] + " " +
           GenNumeric(rng, depth) + ")";
  }
  if (rng.Uniform(3) == 0) return "(NOT " + GenBoolean(rng, depth - 1) + ")";
  const char* ops[] = {"AND", "OR"};
  return "(" + GenBoolean(rng, depth - 1) + " " + ops[rng.Uniform(2)] + " " +
         GenBoolean(rng, depth - 1) + ")";
}

TEST(CqlFuzzTest, RandomExpressionsCompileAndMatchReference) {
  TwoLabelCatalog catalog;
  Rng rng(20240809);
  for (int i = 0; i < 500; ++i) {
    std::string expr = GenBoolean(rng, 4);
    auto parsed = ParseExpression(expr);
    ASSERT_TRUE(parsed.ok()) << expr << ": " << parsed.status();
    auto compiled = CompileTrigger("CREATE TRIGGER t ON a WHEN " + expr,
                                   catalog, 1024);
    ASSERT_TRUE(compiled.ok()) << expr << ": " << compiled.status();

    double evaluated =
        EvalExpr(*compiled->condition, SlotValues(*compiled).data());
    double ref = Reference(**parsed);
    EXPECT_TRUE(evaluated == ref || (std::isnan(evaluated) && std::isnan(ref)))
        << expr << ": evaluated=" << evaluated << " ref=" << ref;
  }
}

}  // namespace
}  // namespace implistat::cql
