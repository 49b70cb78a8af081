#include "cql/trigger_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace implistat {
namespace cql {

namespace {

constexpr uint8_t kTriggerStoreVersion = 2;
constexpr uint64_t kMaxTriggers = 4096;
constexpr size_t kMaxStatementBytes = 1 << 16;

struct TriggerMetrics {
  obs::Counter* fired;
  obs::Counter* evals;
  obs::Histogram* eval_ns;
  static TriggerMetrics& Get() {
    static TriggerMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      TriggerMetrics t;
      t.fired = reg.GetCounter("implistat_triggers_fired_total",
                               "trigger firings recorded");
      t.evals = reg.GetCounter("implistat_trigger_evals_total",
                               "trigger epoch evaluations");
      t.eval_ns = reg.GetHistogram("implistat_trigger_eval_ns",
                                   "nanoseconds per trigger epoch sweep");
      return t;
    }();
    return m;
  }
};

uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

bool Truthy(double value) { return value != 0.0 && !std::isnan(value); }

double EvalExpr(const Expr& expr, const double* slot_values) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kLabelRef:
    case ExprKind::kMovingAvg:
    case ExprKind::kDelta:
      return slot_values[expr.slot];
    case ExprKind::kUnary: {
      const double v = EvalExpr(*expr.lhs, slot_values);
      return expr.unary_op == UnaryOp::kNeg ? -v : (Truthy(v) ? 0.0 : 1.0);
    }
    case ExprKind::kBinary: {
      const double l = EvalExpr(*expr.lhs, slot_values);
      const double r = EvalExpr(*expr.rhs, slot_values);
      switch (expr.binary_op) {
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
      break;
    }
  }
  return 0.0;  // unreachable: sema admits only the kinds above
}

TriggerEngine::TriggerEngine(const EstimateSource* source,
                             uint64_t default_every)
    : source_(source), default_every_(default_every == 0 ? 1 : default_every) {}

TriggerEngine::Armed TriggerEngine::ArmFromCompiled(CompiledTrigger compiled,
                                                    uint64_t tuples_seen) {
  Armed armed;
  armed.slots.resize(compiled.slots.size());
  for (size_t i = 0; i < compiled.slots.size(); ++i) {
    const SlotSpec& spec = compiled.slots[i];
    if (spec.kind == SlotKind::kMovingAvg) {
      armed.slots[i].ring.assign(spec.window, 0.0);
    }
  }
  armed.slot_values.assign(compiled.slots.size(), 0.0);
  // First evaluation lands on the next epoch boundary after "now".
  uint64_t every = compiled.every_tuples == 0 ? 1 : compiled.every_tuples;
  armed.next_eval = tuples_seen + every;
  armed.compiled = std::move(compiled);
  return armed;
}

StatusOr<CompiledTrigger> TriggerEngine::Admit(
    std::string_view statement, uint64_t default_every,
    const std::vector<Armed>& armed) const {
  if (statement.size() > kMaxStatementBytes) {
    return Status::InvalidArgument("trigger statement too long");
  }
  StatusOr<CompiledTrigger> compiled =
      CompileTrigger(statement, *source_, default_every);
  if (!compiled.ok()) return compiled.status();
  for (const Armed& other : armed) {
    if (other.compiled.name == compiled->name) {
      return Status::AlreadyExists("trigger '" + compiled->name +
                                   "' already installed");
    }
  }
  return compiled;
}

StatusOr<std::string> TriggerEngine::Install(std::string_view statement,
                                             uint64_t tuples_seen) {
  if (armed_.size() >= kMaxTriggers) {
    return Status::ResourceExhausted("too many armed triggers");
  }
  StatusOr<CompiledTrigger> compiled =
      Admit(statement, default_every_, armed_);
  if (!compiled.ok()) return compiled.status();
  std::string name = compiled->name;
  armed_.push_back(ArmFromCompiled(std::move(compiled).value(), tuples_seen));
  RecomputeNextDue();
  return name;
}

Status TriggerEngine::Remove(std::string_view name) {
  for (size_t i = 0; i < armed_.size(); ++i) {
    if (armed_[i].compiled.name == name) {
      armed_.erase(armed_.begin() + static_cast<ptrdiff_t>(i));
      RecomputeNextDue();
      return Status::OK();
    }
  }
  return Status::NotFound("no trigger named '" + std::string(name) + "'");
}

bool TriggerEngine::Has(std::string_view name) const {
  for (const Armed& armed : armed_) {
    if (armed.compiled.name == name) return true;
  }
  return false;
}

std::vector<TriggerInfo> TriggerEngine::List() const {
  std::vector<TriggerInfo> out;
  out.reserve(armed_.size());
  for (const Armed& armed : armed_) {
    TriggerInfo info;
    info.name = armed.compiled.name;
    info.source = armed.compiled.source;
    info.on_label = armed.compiled.on_label;
    info.every_tuples = armed.compiled.every_tuples;
    info.cooldown_tuples = armed.compiled.cooldown_tuples;
    info.fired_count = armed.fired_count;
    info.in_cooldown = armed.cooldown_until > armed.next_eval -
                                                  armed.compiled.every_tuples;
    out.push_back(std::move(info));
  }
  return out;
}

void TriggerEngine::RecomputeNextDue() {
  next_due_ = UINT64_MAX;
  for (const Armed& armed : armed_) {
    next_due_ = std::min(next_due_, armed.next_eval);
  }
}

void TriggerEngine::Evaluate(uint64_t tuples_seen) {
  obs::ScopedSpan span("trigger.eval", "cql");
  TriggerMetrics& metrics = TriggerMetrics::Get();
  uint64_t start_ns = MonotonicNanos();
  size_t evaluated = 0;
  // One estimate fetch per label per pass: N triggers watching the same
  // query cost one readout, not N. Linear scan — a pass touches a
  // handful of distinct labels.
  std::vector<std::pair<std::string_view, StatusOr<double>>> label_cache;
  auto estimate_for = [&](std::string_view label) -> StatusOr<double> {
    for (const auto& [cached_label, estimate] : label_cache) {
      if (cached_label == label) return estimate;
    }
    label_cache.emplace_back(label, source_->EstimateForLabel(label));
    return label_cache.back().second;
  };
  for (Armed& armed : armed_) {
    if (tuples_seen < armed.next_eval) continue;
    // A large batch may cross several boundaries at once; we evaluate
    // once at the batch edge and schedule the next boundary after it.
    uint64_t every = armed.compiled.every_tuples;
    uint64_t missed = (tuples_seen - armed.next_eval) / every;
    armed.next_eval += (missed + 1) * every;
    ++evaluated;

    bool inputs_ok = true;
    for (size_t i = 0; i < armed.compiled.slots.size(); ++i) {
      const SlotSpec& spec = armed.compiled.slots[i];
      SlotState& state = armed.slots[i];
      StatusOr<double> estimate = estimate_for(spec.label);
      if (!estimate.ok()) {
        // Referenced query vanished (deactivated): skip this epoch
        // rather than firing on garbage.
        inputs_ok = false;
        break;
      }
      double current = *estimate;
      switch (spec.kind) {
        case SlotKind::kEstimate:
          armed.slot_values[i] = current;
          break;
        case SlotKind::kMovingAvg: {
          state.ring[state.ring_pos] = current;
          state.ring_pos = (state.ring_pos + 1) % state.ring.size();
          if (state.ring_count < state.ring.size()) ++state.ring_count;
          double sum = 0.0;
          for (uint64_t j = 0; j < state.ring_count; ++j) sum += state.ring[j];
          armed.slot_values[i] =
              state.ring_count == 0 ? current
                                    : sum / static_cast<double>(state.ring_count);
          break;
        }
        case SlotKind::kDelta:
          armed.slot_values[i] = state.has_prev ? current - state.prev : 0.0;
          state.prev = current;
          state.has_prev = true;
          break;
      }
    }
    if (!inputs_ok) continue;

    double value =
        EvalExpr(*armed.compiled.condition, armed.slot_values.data());
    bool condition = Truthy(value);
    bool rising_edge = condition && !armed.prev_condition;
    armed.prev_condition = condition;
    if (rising_edge && tuples_seen >= armed.cooldown_until) {
      armed.cooldown_until = tuples_seen + armed.compiled.cooldown_tuples;
      ++armed.fired_count;
      firings_.push_back({armed.compiled.name, tuples_seen, value});
      metrics.fired->Increment();
    }
  }
  RecomputeNextDue();
  if (evaluated > 0) {
    metrics.evals->Increment(evaluated);
    metrics.eval_ns->Record(MonotonicNanos() - start_ns);
    span.Annotate("evaluated", evaluated);
    span.Annotate("fired", firings_.size());
  }
}

std::vector<TriggerFiring> TriggerEngine::TakeFirings() {
  std::vector<TriggerFiring> out;
  out.swap(firings_);
  return out;
}

void TriggerEngine::SerializeTo(ByteWriter* out) const {
  out->PutU8(kTriggerStoreVersion);
  out->PutVarint64(default_every_);
  out->PutVarint64(armed_.size());
  for (const Armed& armed : armed_) {
    // The statement is the trigger; restore recompiles it.
    out->PutLengthPrefixed(armed.compiled.source);
    out->PutVarint64(armed.next_eval);
    out->PutBool(armed.prev_condition);
    out->PutVarint64(armed.cooldown_until);
    out->PutVarint64(armed.fired_count);
    out->PutVarint64(armed.slots.size());
    for (const SlotState& slot : armed.slots) {
      out->PutBool(slot.has_prev);
      out->PutDouble(slot.prev);
      out->PutVarint64(slot.ring_pos);
      out->PutVarint64(slot.ring_count);
      out->PutVarint64(slot.ring.size());
      for (double v : slot.ring) out->PutDouble(v);
    }
  }
}

Status TriggerEngine::RestoreFrom(std::string_view payload) {
  ByteReader in(payload);
  uint8_t version = 0;
  if (Status s = in.ReadU8(&version); !s.ok()) return s;
  if (version != kTriggerStoreVersion) {
    return Status::InvalidArgument("trigger store: unsupported version " +
                                   std::to_string(version));
  }
  uint64_t default_every = 0;
  if (Status s = in.ReadVarint64(&default_every); !s.ok()) return s;
  if (default_every == 0) {
    return Status::InvalidArgument("trigger store: bad default epoch");
  }
  uint64_t count = 0;
  if (Status s = in.ReadVarint64(&count); !s.ok()) return s;
  if (count > kMaxTriggers) {
    return Status::InvalidArgument("trigger store: too many triggers");
  }
  std::vector<Armed> restored;
  restored.reserve(count);
  for (uint64_t t = 0; t < count; ++t) {
    std::string_view statement;
    if (Status s = in.ReadLengthPrefixed(&statement); !s.ok()) return s;
    StatusOr<CompiledTrigger> compiled =
        Admit(statement, default_every, restored);
    if (!compiled.ok()) {
      std::string message = "trigger store: ";
      message.append(compiled.status().message());
      return Status::InvalidArgument(std::move(message));
    }
    Armed armed = ArmFromCompiled(std::move(compiled).value(), 0);
    if (Status s = in.ReadVarint64(&armed.next_eval); !s.ok()) return s;
    if (Status s = in.ReadBool(&armed.prev_condition); !s.ok()) return s;
    if (Status s = in.ReadVarint64(&armed.cooldown_until); !s.ok()) return s;
    if (Status s = in.ReadVarint64(&armed.fired_count); !s.ok()) return s;
    uint64_t num_slots = 0;
    if (Status s = in.ReadVarint64(&num_slots); !s.ok()) return s;
    if (num_slots != armed.slots.size()) {
      return Status::InvalidArgument("trigger store: slot count mismatch");
    }
    // Saved slot states are matched to the recompiled slot table by index
    // (sema's first-occurrence order); ArmFromCompiled sized each ring.
    for (SlotState& slot : armed.slots) {
      if (Status s = in.ReadBool(&slot.has_prev); !s.ok()) return s;
      if (Status s = in.ReadDouble(&slot.prev); !s.ok()) return s;
      if (Status s = in.ReadVarint64(&slot.ring_pos); !s.ok()) return s;
      if (Status s = in.ReadVarint64(&slot.ring_count); !s.ok()) return s;
      uint64_t ring_size = 0;
      if (Status s = in.ReadVarint64(&ring_size); !s.ok()) return s;
      if (ring_size != slot.ring.size() || slot.ring_count > ring_size ||
          (ring_size != 0 && slot.ring_pos >= ring_size)) {
        return Status::InvalidArgument("trigger store: bad ring shape");
      }
      for (double& v : slot.ring) {
        if (Status s = in.ReadDouble(&v); !s.ok()) return s;
      }
    }
    restored.push_back(std::move(armed));
  }
  if (in.remaining() != 0) {
    return Status::InvalidArgument("trigger store: trailing bytes");
  }
  default_every_ = default_every;
  armed_ = std::move(restored);
  firings_.clear();
  RecomputeNextDue();
  return Status::OK();
}

}  // namespace cql
}  // namespace implistat
