// TriggerEngine: armed CREATE TRIGGER statements evaluated at epoch
// boundaries.
//
// QueryEngine owns one of these (created lazily on first install) and
// calls Tick(tuples_seen) from its ingest paths. Tick is a single
// compare against the earliest due epoch, so per-tuple cost is
// negligible until a trigger is actually due; evaluation then refreshes
// the trigger's input slots (estimates, moving-average rings, deltas),
// walks the checked WHEN tree sema produced, and applies edge-triggered
// semantics: a firing is recorded only on a false→true transition, and
// COOLDOWN suppresses re-arming for that many tuples after a firing.
//
// The engine serializes into the kTriggerStore snapshot section as each
// trigger's statement text plus its runtime state (schedule, edge and
// cooldown state, MA rings, delta bookkeeping), so firings resume
// correctly across checkpoint/restore (mid-cooldown included). Restore
// recompiles every statement exactly as Install does, against the
// restored catalog, and refuses bad bytes wholesale.

#ifndef IMPLISTAT_CQL_TRIGGER_ENGINE_H_
#define IMPLISTAT_CQL_TRIGGER_ENGINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cql/sema.h"
#include "util/serde.h"
#include "util/status_or.h"

namespace implistat {
namespace cql {

/// True iff `value` counts as a satisfied condition (non-zero, non-NaN).
bool Truthy(double value);

/// Evaluates a checked tree (CompiledTrigger::condition or any of its
/// subtrees); a label node reads `slot_values[node.slot]`. Arithmetic is
/// IEEE (`%` is fmod), booleans are 1.0/0.0, comparisons involving NaN
/// are false, and AND/OR evaluate both operands.
double EvalExpr(const Expr& expr, const double* slot_values);

/// Estimate lookup for armed triggers; QueryEngine implements this.
class EstimateSource : public LabelCatalog {
 public:
  /// Current estimate for the active query carrying `label`.
  virtual StatusOr<double> EstimateForLabel(std::string_view label) const = 0;
};

struct TriggerFiring {
  std::string trigger;
  uint64_t epoch = 0;  // tuples_seen at the evaluation that fired
  double value = 0.0;  // evaluated WHEN-expression value
};

/// A trigger's externally visible state (CLI listings, tests).
struct TriggerInfo {
  std::string name;
  std::string source;
  std::string on_label;
  uint64_t every_tuples = 0;
  uint64_t cooldown_tuples = 0;
  uint64_t fired_count = 0;
  bool in_cooldown = false;
};

class TriggerEngine {
 public:
  /// `source` must outlive the engine (QueryEngine passes an adapter it
  /// owns). `default_every` fills in triggers without an EVERY clause.
  explicit TriggerEngine(const EstimateSource* source,
                         uint64_t default_every = 1024);

  /// Compiles and arms one CREATE TRIGGER statement. Duplicate names are
  /// AlreadyExists. Returns the trigger name.
  StatusOr<std::string> Install(std::string_view statement,
                                uint64_t tuples_seen);

  Status Remove(std::string_view name);
  bool Has(std::string_view name) const;
  size_t num_triggers() const { return armed_.size(); }
  std::vector<TriggerInfo> List() const;

  /// Ingest-path hook. Cheap no-op unless some trigger's epoch boundary
  /// has been crossed.
  void Tick(uint64_t tuples_seen) {
    if (tuples_seen < next_due_) return;
    Evaluate(tuples_seen);
  }

  bool has_pending_firings() const { return !firings_.empty(); }
  std::vector<TriggerFiring> TakeFirings();

  /// kTriggerStore payload (the caller wraps it in the envelope).
  void SerializeTo(ByteWriter* out) const;
  /// Replaces this engine's triggers from a serialized payload. Every
  /// statement is recompiled against the catalog and checked for a
  /// duplicate name as Install does, and its saved slot state must fit
  /// the recompiled slot table; on any error the engine is left
  /// unchanged.
  Status RestoreFrom(std::string_view payload);

 private:
  struct SlotState {
    std::vector<double> ring;  // kMovingAvg: `window` samples
    uint64_t ring_pos = 0;
    uint64_t ring_count = 0;
    double prev = 0.0;  // kDelta / kMovingAvg bookkeeping
    bool has_prev = false;
  };
  struct Armed {
    CompiledTrigger compiled;
    uint64_t next_eval = 0;
    bool prev_condition = false;
    uint64_t cooldown_until = 0;
    uint64_t fired_count = 0;
    std::vector<SlotState> slots;
    std::vector<double> slot_values;  // scratch, sized at arm time
  };

  void Evaluate(uint64_t tuples_seen);
  void RecomputeNextDue();
  // Install and RestoreFrom admit a statement by the same rules: compile
  // it against the catalog, then refuse a name `armed` already holds.
  StatusOr<CompiledTrigger> Admit(std::string_view statement,
                                  uint64_t default_every,
                                  const std::vector<Armed>& armed) const;
  static Armed ArmFromCompiled(CompiledTrigger compiled, uint64_t tuples_seen);

  const EstimateSource* source_;
  uint64_t default_every_;
  std::vector<Armed> armed_;
  std::vector<TriggerFiring> firings_;
  uint64_t next_due_ = UINT64_MAX;
};

}  // namespace cql
}  // namespace implistat

#endif  // IMPLISTAT_CQL_TRIGGER_ENGINE_H_
