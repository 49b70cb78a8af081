#include "cql/sema.h"

#include <utility>

#include "cql/parser.h"

namespace implistat {
namespace cql {

namespace {

enum class ExprType : uint8_t { kNumber, kBool };

class Checker {
 public:
  Checker(std::string_view source, const LabelCatalog& catalog,
          std::string_view on_label, std::vector<SlotSpec>* slots)
      : source_(source), catalog_(catalog), on_label_(on_label), slots_(slots) {}

  StatusOr<ExprType> Check(Expr& expr) {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return ExprType::kNumber;
      case ExprKind::kLabelRef:
      case ExprKind::kMovingAvg:
      case ExprKind::kDelta: {
        StatusOr<std::string> label = ResolveLabel(expr);
        if (!label.ok()) return label.status();
        SlotSpec spec;
        spec.label = std::move(label).value();
        if (expr.kind == ExprKind::kMovingAvg) {
          spec.kind = SlotKind::kMovingAvg;
          if (expr.window < 1 || expr.window > kMaxMovingAvgWindow) {
            return Fail(expr.span,
                        "MOVING_AVG window must be between 1 and " +
                            std::to_string(kMaxMovingAvgWindow));
          }
          spec.window = expr.window;
        } else if (expr.kind == ExprKind::kDelta) {
          spec.kind = SlotKind::kDelta;
        }
        StatusOr<uint32_t> slot = InternSlot(std::move(spec), expr.span);
        if (!slot.ok()) return slot.status();
        expr.slot = *slot;
        return ExprType::kNumber;
      }
      case ExprKind::kUnary: {
        StatusOr<ExprType> operand = Check(*expr.lhs);
        if (!operand.ok()) return operand.status();
        if (expr.unary_op == UnaryOp::kNeg) {
          if (*operand != ExprType::kNumber) {
            return Fail(expr.span, "unary '-' needs a numeric operand");
          }
          return ExprType::kNumber;
        }
        if (*operand != ExprType::kBool) {
          return Fail(expr.span, "NOT needs a boolean operand");
        }
        return ExprType::kBool;
      }
      case ExprKind::kBinary: {
        StatusOr<ExprType> lhs = Check(*expr.lhs);
        if (!lhs.ok()) return lhs.status();
        StatusOr<ExprType> rhs = Check(*expr.rhs);
        if (!rhs.ok()) return rhs.status();
        switch (expr.binary_op) {
          case BinaryOp::kAdd:
          case BinaryOp::kSub:
          case BinaryOp::kMul:
          case BinaryOp::kDiv:
          case BinaryOp::kMod:
            if (*lhs != ExprType::kNumber || *rhs != ExprType::kNumber) {
              return Fail(expr.span, "arithmetic needs numeric operands");
            }
            return ExprType::kNumber;
          case BinaryOp::kLt:
          case BinaryOp::kLe:
          case BinaryOp::kGt:
          case BinaryOp::kGe:
          case BinaryOp::kEq:
          case BinaryOp::kNe:
            if (*lhs != ExprType::kNumber || *rhs != ExprType::kNumber) {
              return Fail(expr.span,
                          "comparison needs numeric operands (did you chain "
                          "comparisons? use AND)");
            }
            return ExprType::kBool;
          case BinaryOp::kAnd:
          case BinaryOp::kOr:
            if (*lhs != ExprType::kBool || *rhs != ExprType::kBool) {
              return Fail(expr.span,
                          "AND/OR need boolean operands (comparisons)");
            }
            return ExprType::kBool;
        }
        return Fail(expr.span, "unknown operator");
      }
    }
    return Fail(expr.span, "unknown expression");
  }

 private:
  Status Fail(SourceSpan span, std::string message) {
    return DiagnosticToStatus(source_, {std::move(message), span},
                              "trigger error");
  }

  StatusOr<std::string> ResolveLabel(const Expr& expr) {
    std::string label =
        expr.label_is_value ? std::string(on_label_) : expr.label;
    if (!catalog_.HasLabel(label)) {
      return Fail(expr.span, "unknown query label '" + label +
                                 "' (no active query carries it)");
    }
    return label;
  }

  // Slots are numbered in order of first occurrence, left to right. A
  // kTriggerStore checkpoint matches its saved slot states to the
  // recompiled slots by this number alone, so changing the order needs a
  // kTriggerStoreVersion bump.
  StatusOr<uint32_t> InternSlot(SlotSpec spec, SourceSpan span) {
    for (size_t i = 0; i < slots_->size(); ++i) {
      if ((*slots_)[i] == spec) return static_cast<uint32_t>(i);
    }
    if (slots_->size() >= 256) {
      return Fail(span, "trigger references too many distinct inputs");
    }
    slots_->push_back(std::move(spec));
    return static_cast<uint32_t>(slots_->size() - 1);
  }

  std::string_view source_;
  const LabelCatalog& catalog_;
  std::string_view on_label_;
  std::vector<SlotSpec>* slots_;
};

}  // namespace

StatusOr<CompiledTrigger> CompileTrigger(std::string_view source,
                                         const LabelCatalog& catalog,
                                         uint64_t default_every) {
  StatusOr<TriggerDecl> decl = ParseCreateTrigger(source);
  if (!decl.ok()) return decl.status();
  if (!catalog.HasLabel(decl->on_label)) {
    return DiagnosticToStatus(
        source,
        {"unknown query label '" + decl->on_label +
             "' (no active query carries it)",
         decl->on_label_span},
        "trigger error");
  }
  CompiledTrigger out;
  out.name = std::move(decl->name);
  out.source = std::string(source);
  out.on_label = std::move(decl->on_label);
  out.every_tuples = decl->every_tuples != 0 ? decl->every_tuples : default_every;
  out.cooldown_tuples = decl->cooldown_tuples;
  out.condition = std::move(decl->condition);
  Checker checker(source, catalog, out.on_label, &out.slots);
  StatusOr<ExprType> type = checker.Check(*out.condition);
  if (!type.ok()) return type.status();
  if (*type != ExprType::kBool) {
    return DiagnosticToStatus(
        source,
        {"WHEN condition must be boolean (use a comparison)",
         out.condition->span},
        "trigger error");
  }
  return out;
}

}  // namespace cql
}  // namespace implistat
