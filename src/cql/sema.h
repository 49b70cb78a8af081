// Semantic analysis: resolve labels against the registered queries,
// type-check (arithmetic over numbers, comparisons yield booleans, WHEN
// must be boolean), and number the trigger's inputs. The output is the
// checked tree itself: each label, VALUE, MOVING_AVG and DELTA node
// carries the index of its deduplicated input slot, and the trigger
// engine evaluates that tree.
//
// Label resolution goes through the LabelCatalog interface so this layer
// stays below query/ in the library graph: QueryEngine implements the
// catalog, cql never includes it.

#ifndef IMPLISTAT_CQL_SEMA_H_
#define IMPLISTAT_CQL_SEMA_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cql/ast.h"
#include "util/status_or.h"

namespace implistat {
namespace cql {

class LabelCatalog {
 public:
  virtual ~LabelCatalog() = default;
  /// True when a registered, active query carries this label.
  virtual bool HasLabel(std::string_view label) const = 0;
};

/// Moving-average windows are bounded: each (trigger, slot) keeps a ring
/// of `window` doubles across checkpoints.
inline constexpr uint64_t kMaxMovingAvgWindow = 1 << 16;

enum class SlotKind : uint8_t {
  kEstimate,   // current estimate of `label`
  kMovingAvg,  // ring-buffered average of the last `window` epochs
  kDelta,      // estimate now minus estimate at the previous epoch
};

/// One runtime input of a trigger. Equal specs share a slot.
struct SlotSpec {
  SlotKind kind = SlotKind::kEstimate;
  std::string label;
  uint64_t window = 0;  // kMovingAvg only

  bool operator==(const SlotSpec& o) const = default;
};

/// A checked trigger, ready to arm.
struct CompiledTrigger {
  std::string name;
  std::string source;    // statement text; checkpoints keep only this
  std::string on_label;  // resolved subject query
  uint64_t every_tuples = 0;
  uint64_t cooldown_tuples = 0;
  std::unique_ptr<Expr> condition;  // boolean; label nodes index `slots`
  // In order of first occurrence, left to right. The order is part of the
  // kTriggerStore format: restore matches saved slot state by index.
  std::vector<SlotSpec> slots;
};

/// Parses, resolves and type-checks one CREATE TRIGGER statement.
/// `default_every` fills in a missing EVERY clause. Errors are
/// caret-rendered against `source`.
StatusOr<CompiledTrigger> CompileTrigger(std::string_view source,
                                         const LabelCatalog& catalog,
                                         uint64_t default_every);

}  // namespace cql
}  // namespace implistat

#endif  // IMPLISTAT_CQL_SEMA_H_
