#include "cql/parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <string>
#include <utility>

#include "cql/lexer.h"

namespace implistat {
namespace cql {

namespace {

// Binding powers, weakest first. Comparison chains (`a < b < c`) parse
// left-associatively; sema rejects comparing a boolean so they diagnose
// cleanly instead of silently meaning `(a < b) < c`.
enum Precedence : int {
  kPrecNone = 0,
  kPrecOr = 1,
  kPrecAnd = 2,
  kPrecCompare = 3,
  kPrecAdd = 4,
  kPrecMul = 5,
  kPrecUnary = 6,
};

struct InfixOp {
  BinaryOp op;
  int precedence;
};

// A parsed expression and the number of levels its deepest leaf sits
// below its root (0 for a leaf; see kMaxExprDepth).
struct Parsed {
  std::unique_ptr<Expr> expr;
  int height = 0;
};

class Parser {
 public:
  Parser(std::string_view source, std::vector<Token> tokens)
      : source_(source), tokens_(std::move(tokens)) {}

  StatusOr<TriggerDecl> ParseTriggerStatement() {
    TriggerDecl decl;
    if (!ConsumeKeyword("CREATE")) return Expected("CREATE");
    if (!ConsumeKeyword("TRIGGER")) return Expected("TRIGGER");
    StatusOr<std::string> name = ConsumeName("trigger name");
    if (!name.ok()) return name.status();
    decl.name = std::move(name).value();
    if (!ConsumeKeyword("ON")) return Expected("ON");
    SourceSpan on_span = Peek().span;
    StatusOr<std::string> label = ConsumeName("query label");
    if (!label.ok()) return label.status();
    decl.on_label = std::move(label).value();
    decl.on_label_span = on_span;
    if (!ConsumeKeyword("WHEN")) return Expected("WHEN");
    StatusOr<Parsed> cond = ParseExpr(kPrecNone, 0);
    if (!cond.ok()) return cond.status();
    decl.condition = std::move(cond->expr);
    while (true) {
      if (ConsumeKeyword("EVERY")) {
        StatusOr<uint64_t> n = ConsumePositiveInt("EVERY");
        if (!n.ok()) return n.status();
        decl.every_tuples = *n;
        if (!ConsumeKeyword("TUPLES")) return Expected("TUPLES");
      } else if (ConsumeKeyword("COOLDOWN")) {
        StatusOr<uint64_t> n = ConsumePositiveInt("COOLDOWN");
        if (!n.ok()) return n.status();
        decl.cooldown_tuples = *n;
        ConsumeKeyword("TUPLES");  // optional unit, for symmetry
      } else {
        break;
      }
    }
    ConsumePunct(";");
    if (Peek().kind != TokenKind::kEnd) {
      return Fail(Peek().span, "trailing input after trigger statement");
    }
    return decl;
  }

  StatusOr<std::unique_ptr<Expr>> ParseBareExpression() {
    StatusOr<Parsed> expr = ParseExpr(kPrecNone, 0);
    if (!expr.ok()) return expr.status();
    if (Peek().kind != TokenKind::kEnd) {
      return Fail(Peek().span, "trailing input after expression");
    }
    return std::move(expr->expr);
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool ConsumeKeyword(std::string_view kw) {
    if (!Peek().IsKeyword(kw)) return false;
    ++pos_;
    return true;
  }
  bool ConsumePunct(std::string_view p) {
    if (!Peek().IsPunct(p)) return false;
    ++pos_;
    return true;
  }

  Status Fail(SourceSpan span, std::string message) const {
    return DiagnosticToStatus(source_, {std::move(message), span},
                              "trigger parse error");
  }
  // `span` opens a level past kMaxExprDepth. Refusing it here, before
  // descending, bounds the recursion of this parser, of sema and of the
  // evaluator alike.
  Status TooDeep(SourceSpan span) const {
    std::string message = "expression nested deeper than ";
    message.append(std::to_string(kMaxExprDepth)).append(" levels");
    return Fail(span, std::move(message));
  }
  Status Expected(std::string_view what) {
    // Built with append: GCC 12 at -O3 misreports `"'" + std::string(...)`
    // as an overlapping memcpy (-Werror=restrict).
    std::string message = "expected ";
    message.append(what).append(", found ");
    if (Peek().kind == TokenKind::kEnd) {
      message.append("end of input");
    } else {
      message.append("'").append(Peek().text).append("'");
    }
    return Fail(Peek().span, std::move(message));
  }

  StatusOr<std::string> ConsumeName(std::string_view what) {
    const Token& t = Peek();
    if (t.kind != TokenKind::kIdent && t.kind != TokenKind::kString) {
      return Expected(what);
    }
    Advance();
    return std::string(t.text);
  }

  StatusOr<uint64_t> ConsumePositiveInt(std::string_view clause) {
    const Token& t = Peek();
    if (t.kind != TokenKind::kNumber) {
      return Fail(t.span, std::string(clause) + " needs a positive count");
    }
    double v = t.number;
    if (!(v >= 1.0) || v != std::floor(v) || v > 1e15) {
      return Fail(t.span,
                  std::string(clause) + " count must be a positive integer");
    }
    Advance();
    return static_cast<uint64_t>(v);
  }

  bool MatchInfix(const Token& t, InfixOp* out) const {
    if (t.kind == TokenKind::kPunct) {
      std::string_view p = t.text;
      if (p == "+") *out = {BinaryOp::kAdd, kPrecAdd};
      else if (p == "-") *out = {BinaryOp::kSub, kPrecAdd};
      else if (p == "*") *out = {BinaryOp::kMul, kPrecMul};
      else if (p == "/") *out = {BinaryOp::kDiv, kPrecMul};
      else if (p == "%") *out = {BinaryOp::kMod, kPrecMul};
      else if (p == "<") *out = {BinaryOp::kLt, kPrecCompare};
      else if (p == "<=") *out = {BinaryOp::kLe, kPrecCompare};
      else if (p == ">") *out = {BinaryOp::kGt, kPrecCompare};
      else if (p == ">=") *out = {BinaryOp::kGe, kPrecCompare};
      else if (p == "=" || p == "==") *out = {BinaryOp::kEq, kPrecCompare};
      else if (p == "!=") *out = {BinaryOp::kNe, kPrecCompare};
      else if (p == "&&") *out = {BinaryOp::kAnd, kPrecAnd};
      else if (p == "||") *out = {BinaryOp::kOr, kPrecOr};
      else return false;
      return true;
    }
    if (t.IsKeyword("AND")) {
      *out = {BinaryOp::kAnd, kPrecAnd};
      return true;
    }
    if (t.IsKeyword("OR")) {
      *out = {BinaryOp::kOr, kPrecOr};
      return true;
    }
    return false;
  }

  // Parses an expression whose root sits `depth` levels below the WHEN
  // expression's.
  StatusOr<Parsed> ParseExpr(int min_precedence, int depth) {
    StatusOr<Parsed> lhs = ParsePrefix(depth);
    if (!lhs.ok()) return lhs.status();
    Parsed node = std::move(lhs).value();
    while (true) {
      InfixOp op;
      if (!MatchInfix(Peek(), &op) || op.precedence <= min_precedence) break;
      SourceSpan op_span = Advance().span;
      // Both operands sit one level below the operator, so each operator
      // of a left-associative chain pushes the chain so far one deeper.
      if (depth + node.height + 1 > kMaxExprDepth) return TooDeep(op_span);
      StatusOr<Parsed> rhs = ParseExpr(op.precedence, depth + 1);
      if (!rhs.ok()) return rhs.status();
      auto combined = std::make_unique<Expr>();
      combined->kind = ExprKind::kBinary;
      combined->span = op_span;
      combined->binary_op = op.op;
      combined->lhs = std::move(node.expr);
      combined->rhs = std::move(rhs->expr);
      node.expr = std::move(combined);
      node.height = 1 + std::max(node.height, rhs->height);
    }
    return node;
  }

  StatusOr<Parsed> ParsePrefix(int depth) {
    const Token& t = Peek();
    if (t.IsPunct("-") || t.IsPunct("!") || t.IsKeyword("NOT")) {
      UnaryOp op = t.IsPunct("-") ? UnaryOp::kNeg : UnaryOp::kNot;
      if (depth + 1 > kMaxExprDepth) return TooDeep(t.span);
      SourceSpan span = Advance().span;
      StatusOr<Parsed> operand = ParseExpr(kPrecUnary, depth + 1);
      if (!operand.ok()) return operand.status();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kUnary;
      node->span = span;
      node->unary_op = op;
      node->lhs = std::move(operand->expr);
      return Parsed{std::move(node), operand->height + 1};
    }
    if (t.IsPunct("(")) {
      if (depth + 1 > kMaxExprDepth) return TooDeep(t.span);
      Advance();
      StatusOr<Parsed> inner = ParseExpr(kPrecNone, depth + 1);
      if (!inner.ok()) return inner.status();
      if (!ConsumePunct(")")) return Expected("')'");
      ++inner->height;
      return inner;
    }
    if (t.kind == TokenKind::kNumber) {
      Advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kLiteral;
      node->span = t.span;
      node->literal = t.number;
      return Parsed{std::move(node)};
    }
    if (t.IsKeyword("MOVING_AVG") || t.IsKeyword("DELTA")) {
      bool is_ma = t.IsKeyword("MOVING_AVG");
      SourceSpan call_span = Advance().span;
      if (!ConsumePunct("(")) return Expected("'('");
      auto node = std::make_unique<Expr>();
      node->kind = is_ma ? ExprKind::kMovingAvg : ExprKind::kDelta;
      node->span = call_span;
      const Token& arg = Peek();
      if (arg.IsKeyword("VALUE")) {
        node->label_is_value = true;
        Advance();
      } else if (arg.kind == TokenKind::kIdent ||
                 arg.kind == TokenKind::kString) {
        node->label = std::string(arg.text);
        Advance();
      } else {
        return Expected("query label");
      }
      if (is_ma) {
        if (!ConsumePunct(",")) return Expected("','");
        StatusOr<uint64_t> w = ConsumePositiveInt("MOVING_AVG window");
        if (!w.ok()) return w.status();
        node->window = *w;
      }
      if (!ConsumePunct(")")) return Expected("')'");
      return Parsed{std::move(node)};
    }
    if (t.IsKeyword("VALUE")) {
      Advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kLabelRef;
      node->span = t.span;
      node->label_is_value = true;
      return Parsed{std::move(node)};
    }
    if (t.kind == TokenKind::kIdent || t.kind == TokenKind::kString) {
      Advance();
      auto node = std::make_unique<Expr>();
      node->kind = ExprKind::kLabelRef;
      node->span = t.span;
      node->label = std::string(t.text);
      return Parsed{std::move(node)};
    }
    return Expected("an expression");
  }

  std::string_view source_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

StatusOr<std::vector<Token>> LexOrRender(std::string_view source) {
  Diagnostic diag;
  StatusOr<std::vector<Token>> tokens = Tokenize(source, &diag);
  if (!tokens.ok()) {
    return DiagnosticToStatus(source, diag, "trigger parse error");
  }
  return tokens;
}

}  // namespace

StatusOr<TriggerDecl> ParseCreateTrigger(std::string_view source) {
  StatusOr<std::vector<Token>> tokens = LexOrRender(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(source, std::move(tokens).value());
  return parser.ParseTriggerStatement();
}

StatusOr<std::unique_ptr<Expr>> ParseExpression(std::string_view source) {
  StatusOr<std::vector<Token>> tokens = LexOrRender(source);
  if (!tokens.ok()) return tokens.status();
  Parser parser(source, std::move(tokens).value());
  return parser.ParseBareExpression();
}

std::vector<std::string> SplitStatements(std::string_view script) {
  std::vector<std::string> statements;
  std::string current;
  bool meaningful = false;  // current holds more than whitespace/comments
  for (size_t i = 0; i < script.size(); ++i) {
    const char c = script[i];
    if (c == '-' && i + 1 < script.size() && script[i + 1] == '-') {
      while (i < script.size() && script[i] != '\n') ++i;
      current.push_back('\n');
      continue;
    }
    if (c == '\'') {
      // Copy the quoted run verbatim; an unterminated string just runs
      // to the end of the script and the parser diagnoses it properly.
      current.push_back(c);
      meaningful = true;
      while (++i < script.size()) {
        current.push_back(script[i]);
        if (script[i] == '\'') break;
      }
      continue;
    }
    if (c == ';') {
      if (meaningful) statements.push_back(std::move(current));
      current.clear();
      meaningful = false;
      continue;
    }
    current.push_back(c);
    if (!std::isspace(static_cast<unsigned char>(c))) meaningful = true;
  }
  if (meaningful) statements.push_back(std::move(current));
  return statements;
}

}  // namespace cql
}  // namespace implistat
