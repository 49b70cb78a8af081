// TriggerEngine behavior: edge-triggered firing, cooldown suppression,
// moving averages and deltas checked against a scalar reference, and the
// kTriggerStore serialize/restore path — including a checkpoint taken
// mid-cooldown through the full QueryEngine, which must resume without
// double-firing.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cql/trigger_engine.h"
#include "query/engine.h"

namespace implistat::cql {
namespace {

// Estimates the test scripts by hand: label -> value, settable between
// Ticks.
class FakeSource : public EstimateSource {
 public:
  bool HasLabel(std::string_view label) const override {
    return values_.count(std::string(label)) > 0;
  }
  StatusOr<double> EstimateForLabel(std::string_view label) const override {
    auto it = values_.find(std::string(label));
    if (it == values_.end()) return Status::NotFound("no such label");
    return it->second;
  }
  void Set(const std::string& label, double value) { values_[label] = value; }
  void Drop(const std::string& label) { values_.erase(label); }

 private:
  std::map<std::string, double> values_;
};

std::vector<std::string> FiringNames(TriggerEngine& engine) {
  std::vector<std::string> names;
  for (const TriggerFiring& firing : engine.TakeFirings()) {
    names.push_back(firing.trigger);
  }
  return names;
}

TEST(TriggerEngineTest, EdgeTriggeredFiresOnlyOnRisingEdge) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine engine(&source);
  ASSERT_TRUE(
      engine.Install("CREATE TRIGGER t ON a WHEN a > 5 EVERY 10 TUPLES", 0)
          .ok());

  source.Set("a", 10.0);
  engine.Tick(10);
  EXPECT_EQ(FiringNames(engine).size(), 1u);  // rising edge

  engine.Tick(20);
  engine.Tick(30);
  EXPECT_TRUE(FiringNames(engine).empty());  // still true: no new edge

  source.Set("a", 1.0);
  engine.Tick(40);  // falls
  source.Set("a", 9.0);
  engine.Tick(50);  // rises again
  EXPECT_EQ(FiringNames(engine).size(), 1u);
}

TEST(TriggerEngineTest, CooldownSuppressesRefire) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine engine(&source);
  ASSERT_TRUE(engine
                  .Install("CREATE TRIGGER t ON a WHEN a > 5 "
                           "EVERY 10 TUPLES COOLDOWN 25",
                           0)
                  .ok());

  source.Set("a", 10.0);
  engine.Tick(10);
  EXPECT_EQ(FiringNames(engine).size(), 1u);  // fires; cooldown until 35

  source.Set("a", 1.0);
  engine.Tick(20);
  source.Set("a", 10.0);
  engine.Tick(30);  // rising edge inside cooldown: swallowed
  EXPECT_TRUE(FiringNames(engine).empty());

  source.Set("a", 1.0);
  engine.Tick(40);
  source.Set("a", 10.0);
  engine.Tick(50);  // cooldown expired: the next edge fires
  EXPECT_EQ(FiringNames(engine).size(), 1u);
}

TEST(TriggerEngineTest, LargeBatchEvaluatesOnceAtTheEdge) {
  FakeSource source;
  source.Set("a", 10.0);
  TriggerEngine engine(&source);
  ASSERT_TRUE(
      engine.Install("CREATE TRIGGER t ON a WHEN a > 5 EVERY 10 TUPLES", 0)
          .ok());
  // One batch crosses many boundaries; a single evaluation, not one per
  // missed epoch.
  engine.Tick(1000);
  auto firings = engine.TakeFirings();
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0].epoch, 1000u);
}

TEST(TriggerEngineTest, MovingAverageMatchesScalarReference) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine engine(&source);
  // Fires whenever MA(4) of the estimate is >= 5 (edge-triggered).
  ASSERT_TRUE(engine
                  .Install("CREATE TRIGGER ma ON a WHEN "
                           "MOVING_AVG(a, 4) >= 5 EVERY 10 TUPLES",
                           0)
                  .ok());

  const std::vector<double> estimates = {1, 2,  30, 1, 1, 1, 1,
                                         9, 20, 4,  0, 0, 0, 40};
  // Scalar reference: ring of 4, average of what's filled so far.
  std::vector<double> ring;
  std::vector<uint64_t> expected_epochs;
  bool prev = false;
  for (size_t i = 0; i < estimates.size(); ++i) {
    ring.push_back(estimates[i]);
    if (ring.size() > 4) ring.erase(ring.begin());
    double sum = 0;
    for (double v : ring) sum += v;
    bool cond = sum / static_cast<double>(ring.size()) >= 5.0;
    if (cond && !prev) expected_epochs.push_back((i + 1) * 10);
    prev = cond;
  }
  ASSERT_GE(expected_epochs.size(), 2u);  // the script has several edges

  std::vector<uint64_t> actual_epochs;
  for (size_t i = 0; i < estimates.size(); ++i) {
    source.Set("a", estimates[i]);
    engine.Tick((i + 1) * 10);
    for (const TriggerFiring& firing : engine.TakeFirings()) {
      actual_epochs.push_back(firing.epoch);
    }
  }
  EXPECT_EQ(actual_epochs, expected_epochs);
}

TEST(TriggerEngineTest, DeltaMatchesScalarReference) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine engine(&source);
  ASSERT_TRUE(engine
                  .Install("CREATE TRIGGER d ON a WHEN DELTA(a) > 3 "
                           "EVERY 10 TUPLES",
                           0)
                  .ok());

  const std::vector<double> estimates = {2, 4, 10, 11, 20, 20, 2, 9};
  std::vector<uint64_t> expected_epochs;
  bool prev = false;
  bool has_prev = false;
  double prev_estimate = 0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    double delta = has_prev ? estimates[i] - prev_estimate : 0.0;
    prev_estimate = estimates[i];
    has_prev = true;
    bool cond = delta > 3.0;
    if (cond && !prev) expected_epochs.push_back((i + 1) * 10);
    prev = cond;
  }

  std::vector<uint64_t> actual_epochs;
  for (size_t i = 0; i < estimates.size(); ++i) {
    source.Set("a", estimates[i]);
    engine.Tick((i + 1) * 10);
    for (const TriggerFiring& firing : engine.TakeFirings()) {
      actual_epochs.push_back(firing.epoch);
    }
  }
  EXPECT_EQ(actual_epochs, expected_epochs);
}

TEST(TriggerEngineTest, VanishedLabelSkipsEvaluation) {
  FakeSource source;
  source.Set("a", 10.0);
  TriggerEngine engine(&source);
  ASSERT_TRUE(
      engine.Install("CREATE TRIGGER t ON a WHEN a > 5 EVERY 10 TUPLES", 0)
          .ok());
  source.Drop("a");
  engine.Tick(10);  // no crash, no firing on garbage
  EXPECT_TRUE(engine.TakeFirings().empty());
  source.Set("a", 10.0);
  engine.Tick(20);
  EXPECT_EQ(engine.TakeFirings().size(), 1u);
}

TEST(TriggerEngineTest, DuplicateNamesAndRemoval) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine engine(&source);
  ASSERT_TRUE(engine.Install("CREATE TRIGGER t ON a WHEN a > 5", 0).ok());
  auto dup = engine.Install("CREATE TRIGGER t ON a WHEN a > 9", 0);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(engine.Has("t"));
  ASSERT_TRUE(engine.Remove("t").ok());
  EXPECT_FALSE(engine.Has("t"));
  EXPECT_EQ(engine.Remove("t").code(), StatusCode::kNotFound);
}

// Serialize mid-cooldown, restore into a fresh engine, and drive both
// the restored engine and an uninterrupted twin through the same tail:
// firings must match exactly.
TEST(TriggerEngineTest, RestoreMidCooldownMatchesUninterruptedTwin) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine original(&source);
  TriggerEngine twin(&source);
  const std::string rule =
      "CREATE TRIGGER t ON a WHEN MOVING_AVG(a, 3) > 5 "
      "EVERY 10 TUPLES COOLDOWN 35";
  ASSERT_TRUE(original.Install(rule, 0).ok());
  ASSERT_TRUE(twin.Install(rule, 0).ok());

  const std::vector<double> head = {9, 9, 1};   // fires at 10, cooldown to 45
  const std::vector<double> tail = {1, 9, 9, 9, 1, 9};
  uint64_t epoch = 0;
  for (double v : head) {
    source.Set("a", v);
    epoch += 10;
    original.Tick(epoch);
    twin.Tick(epoch);
  }
  EXPECT_EQ(original.TakeFirings().size(), 1u);
  EXPECT_EQ(twin.TakeFirings().size(), 1u);

  ByteWriter out;
  original.SerializeTo(&out);
  TriggerEngine restored(&source);
  ASSERT_TRUE(restored.RestoreFrom(out.str()).ok());
  EXPECT_EQ(restored.num_triggers(), 1u);

  std::vector<uint64_t> restored_epochs, twin_epochs;
  for (double v : tail) {
    source.Set("a", v);
    epoch += 10;
    restored.Tick(epoch);
    twin.Tick(epoch);
    for (const TriggerFiring& f : restored.TakeFirings()) {
      restored_epochs.push_back(f.epoch);
    }
    for (const TriggerFiring& f : twin.TakeFirings()) {
      twin_epochs.push_back(f.epoch);
    }
  }
  EXPECT_EQ(restored_epochs, twin_epochs);
  ASSERT_FALSE(twin_epochs.empty());  // the tail does refire post-cooldown
}

TEST(TriggerEngineTest, RestoreRefusesCorruptPayloadWholesale) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine original(&source);
  ASSERT_TRUE(original
                  .Install("CREATE TRIGGER keep ON a WHEN a > 1 "
                           "EVERY 10 TUPLES",
                           0)
                  .ok());
  ByteWriter out;
  original.SerializeTo(&out);
  std::string bytes(out.str());

  TriggerEngine target(&source);
  ASSERT_TRUE(target.Install("CREATE TRIGGER other ON a WHEN a > 2", 0).ok());
  for (size_t len = 0; len + 1 < bytes.size(); len += 3) {
    Status restored = target.RestoreFrom(bytes.substr(0, len));
    EXPECT_FALSE(restored.ok());
    // Refusal leaves the engine untouched.
    EXPECT_TRUE(target.Has("other"));
    EXPECT_FALSE(target.Has("keep"));
  }
  // A label the catalog no longer carries is refused too.
  source.Drop("a");
  EXPECT_FALSE(target.RestoreFrom(bytes).ok());
}

// A checkpoint holds statement text, so restore admits a statement only
// as Install would: one that names an armed trigger again is refused,
// and the refusal leaves the target as it was.
TEST(TriggerEngineTest, RestoreRefusesADuplicateNameWholesale) {
  FakeSource source;
  source.Set("a", 0.0);
  TriggerEngine original(&source);
  ASSERT_TRUE(original.Install("CREATE TRIGGER t ON a WHEN a > 1", 0).ok());
  ASSERT_TRUE(original.Install("CREATE TRIGGER u ON a WHEN a > 1", 0).ok());
  ByteWriter out;
  original.SerializeTo(&out);
  std::string bytes(out.str());
  const size_t at = bytes.find("CREATE TRIGGER u ");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 17, "CREATE TRIGGER t ");

  TriggerEngine target(&source);
  ASSERT_TRUE(target.Install("CREATE TRIGGER other ON a WHEN a > 2", 0).ok());
  Status restored = target.RestoreFrom(bytes);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.message().find("already installed"),
            std::string_view::npos)
      << restored;
  EXPECT_EQ(target.num_triggers(), 1u);
  EXPECT_TRUE(target.Has("other"));
  EXPECT_FALSE(target.Has("t"));
}

// `a > ` a balanced sum of 1,100 distinct literals (11 operators deep):
// a statement Install accepts must come back from its own checkpoint.
std::string BalancedSum(int lo, int hi) {
  if (hi - lo == 1) return std::to_string(lo);
  const int mid = lo + (hi - lo) / 2;
  return "(" + BalancedSum(lo, mid) + " + " + BalancedSum(mid, hi) + ")";
}

// Full-stack: QueryEngine checkpoint taken mid-cooldown restores the
// trigger store and keeps suppressing until the cooldown elapses.
TEST(TriggerEngineTest, QueryEngineCheckpointMidCooldown) {
  Schema schema({{"Source", 16}, {"Destination", 16}});
  auto exact_spec = [&]() {
    ImplicationQuerySpec spec;
    spec.a_attributes = {"Source"};
    spec.b_attributes = {"Destination"};
    spec.conditions.max_multiplicity = 1;
    spec.conditions.min_support = 1;
    spec.conditions.min_top_confidence = 1.0;
    spec.conditions.confidence_c = 1;
    spec.estimator.kind = EstimatorKind::kExact;
    spec.label = "flows";
    return spec;
  };
  // Row i: source i%16 implies destination (i%16)%8 — every source maps
  // to exactly one destination, so the exact count ramps to 16 and stays.
  auto feed = [](QueryEngine& engine, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      std::vector<ValueId> row = {static_cast<ValueId>(i % 16),
                                  static_cast<ValueId>((i % 16) % 8)};
      engine.ObserveTuple(TupleRef(row.data(), row.size()));
    }
  };

  QueryEngine engine(schema);
  ASSERT_TRUE(engine.Register(exact_spec()).ok());
  ASSERT_TRUE(engine
                  .InstallTrigger("CREATE TRIGGER ramp ON flows WHEN "
                                  "flows >= 16 EVERY 20 TUPLES COOLDOWN 500")
                  .ok());
  feed(engine, 0, 100);  // fires once the count reaches 16; cooldown to ~520
  ASSERT_TRUE(engine.has_pending_trigger_firings());
  auto firings = engine.TakeTriggerFirings();
  ASSERT_EQ(firings.size(), 1u);
  EXPECT_EQ(firings[0].trigger, "ramp");

  std::string path =
      testing::TempDir() + "/cql_trigger_checkpoint_mid_cooldown.bin";
  ASSERT_TRUE(engine.Checkpoint(path).ok());

  QueryEngine restored(schema);
  ASSERT_TRUE(restored.Restore(path).ok());
  ASSERT_NE(restored.triggers(), nullptr);
  ASSERT_TRUE(restored.triggers()->Has("ramp"));
  auto info = restored.triggers()->List();
  ASSERT_EQ(info.size(), 1u);
  EXPECT_EQ(info[0].fired_count, 1u);

  // The condition stays true through the cooldown: no refire, and no
  // refire after it either (no falling edge ever happens).
  feed(restored, 100, 1000);
  EXPECT_FALSE(restored.has_pending_trigger_firings());
  std::remove(path.c_str());
}

TEST(TriggerEngineTest, LargeStatementSurvivesCheckpointAndFiresLikeTwin) {
  Schema schema({{"Source", 64}, {"Destination", 16}});
  ImplicationQuerySpec spec;
  spec.a_attributes = {"Source"};
  spec.b_attributes = {"Destination"};
  spec.conditions.max_multiplicity = 1;
  spec.conditions.min_support = 1;
  spec.conditions.min_top_confidence = 1.0;
  spec.conditions.confidence_c = 1;
  spec.estimator.kind = EstimatorKind::kExact;
  spec.label = "flows";
  // Row i: a fresh source per tuple, each with one destination, so the
  // exact count reads i + 1 after tuple i.
  auto feed = [](QueryEngine& engine, uint64_t begin, uint64_t end) {
    for (uint64_t i = begin; i < end; ++i) {
      std::vector<ValueId> row = {static_cast<ValueId>(i % 64),
                                  static_cast<ValueId>(i % 16)};
      engine.ObserveTuple(TupleRef(row.data(), row.size()));
    }
  };
  // The literals 1..1100 sum to 605,550 exactly, so this fires once the
  // count exceeds 40.
  const std::string statement = "CREATE TRIGGER big ON flows WHEN flows > " +
                                BalancedSum(1, 1101) +
                                " - 605510 EVERY 4 TUPLES";
  ASSERT_GT(statement.size(), 6000u);

  QueryEngine twin(schema);
  ASSERT_TRUE(twin.Register(spec).ok());
  ASSERT_TRUE(twin.InstallTrigger(statement).ok());
  feed(twin, 0, 32);
  EXPECT_FALSE(twin.has_pending_trigger_firings());

  std::string path = testing::TempDir() + "/cql_trigger_large_statement.bin";
  ASSERT_TRUE(twin.Checkpoint(path).ok());
  QueryEngine restored(schema);
  Status status = restored.Restore(path);
  ASSERT_TRUE(status.ok()) << status;
  ASSERT_NE(restored.triggers(), nullptr);
  ASSERT_TRUE(restored.triggers()->Has("big"));

  feed(twin, 32, 64);
  feed(restored, 32, 64);
  auto twin_firings = twin.TakeTriggerFirings();
  auto restored_firings = restored.TakeTriggerFirings();
  ASSERT_EQ(twin_firings.size(), 1u);
  EXPECT_EQ(twin_firings[0].epoch, 44u);  // first epoch with count > 40
  ASSERT_EQ(restored_firings.size(), 1u);
  EXPECT_EQ(restored_firings[0].trigger, "big");
  EXPECT_EQ(restored_firings[0].epoch, twin_firings[0].epoch);
  EXPECT_EQ(restored_firings[0].value, twin_firings[0].value);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace implistat::cql
