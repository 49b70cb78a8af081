// Abstract syntax for trigger rules.
//
//   CREATE TRIGGER <name> ON <query-label>
//     WHEN <expr> [EVERY <n> TUPLES] [COOLDOWN <n>]
//
// <expr> is arithmetic/comparison over query estimates (bare labels or
// the VALUE keyword for the ON label), MOVING_AVG(label, window),
// DELTA(label), and numeric literals. Nodes keep their source span so
// sema can point a caret at the exact subexpression it rejects. Sema
// resolves each label node to a slot of the trigger's input table, and
// the checked tree is what the trigger engine evaluates.

#ifndef IMPLISTAT_CQL_AST_H_
#define IMPLISTAT_CQL_AST_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cql/diag.h"

namespace implistat {
namespace cql {

enum class ExprKind : uint8_t {
  kLiteral,    // numeric constant
  kLabelRef,   // current estimate of a registered query (or VALUE)
  kMovingAvg,  // MOVING_AVG(label, window)
  kDelta,      // DELTA(label): estimate now minus previous epoch
  kUnary,      // - !
  kBinary,     // + - * / % < <= > >= = != AND OR
};

enum class BinaryOp : uint8_t {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kMod,
  kLt,
  kLe,
  kGt,
  kGe,
  kEq,
  kNe,
  kAnd,
  kOr,
};

enum class UnaryOp : uint8_t { kNeg, kNot };

struct Expr {
  ExprKind kind = ExprKind::kLiteral;
  SourceSpan span;

  double literal = 0.0;        // kLiteral
  std::string label;           // kLabelRef/kMovingAvg/kDelta; empty = VALUE
  bool label_is_value = false;  // true when written as the VALUE keyword
  uint64_t window = 0;         // kMovingAvg
  uint32_t slot = 0;           // label nodes: input slot, set by sema
  BinaryOp binary_op = BinaryOp::kAdd;
  UnaryOp unary_op = UnaryOp::kNeg;
  std::unique_ptr<Expr> lhs;  // kUnary operand / kBinary left
  std::unique_ptr<Expr> rhs;  // kBinary right
};

/// A parsed-but-unresolved CREATE TRIGGER statement.
struct TriggerDecl {
  std::string name;
  std::string on_label;
  SourceSpan on_label_span;
  std::unique_ptr<Expr> condition;
  uint64_t every_tuples = 0;    // 0: engine default
  uint64_t cooldown_tuples = 0;  // 0: no cooldown
};

}  // namespace cql
}  // namespace implistat

#endif  // IMPLISTAT_CQL_AST_H_
