// Edge-case coverage across the engine: empty inputs, degenerate options,
// limit boundaries, multi-target actions, tie-breaking.
#include <gtest/gtest.h>

#include <memory>

#include "core/reconciler.hpp"
#include "objects/counter.hpp"
#include "objects/rw_register.hpp"
#include "test_helpers.hpp"

namespace icecube {
namespace {

using testing::make_log;
using testing::NopAction;
using testing::ScriptedObject;

TEST(EdgeCases, SingleEmptyLog) {
  Universe u;
  (void)u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  logs.emplace_back("empty");
  Reconciler r(u, logs);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_TRUE(result.best().complete);
  EXPECT_TRUE(result.best().schedule.empty());
}

TEST(EdgeCases, ManyEmptyLogs) {
  Universe u;
  (void)u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs(5);
  Reconciler r(u, logs);
  EXPECT_TRUE(r.run().best().complete);
}

TEST(EdgeCases, SingleLogReconciliationReplaysIt) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(3));
  std::vector<Log> logs;
  logs.push_back(make_log("only", {std::make_shared<DecrementAction>(c, 1),
                                   std::make_shared<DecrementAction>(c, 2)}));
  Reconciler r(u, logs);
  const auto result = r.run();
  EXPECT_TRUE(result.best().complete);
  EXPECT_EQ(result.best().final_state.as<Counter>(c).value(), 0);
}

TEST(EdgeCases, ActionWithNoTargetsIsUniversallySafe) {
  Universe u;
  const ObjectId obj = u.add(std::make_unique<ScriptedObject>(
      [](const Action&, const Action&, LogRelation) {
        return Constraint::kUnsafe;
      }));
  std::vector<Log> logs;
  logs.push_back(make_log(
      "a", {std::make_shared<NopAction>("targetless", std::vector<ObjectId>{}),
            std::make_shared<NopAction>("targeted", std::vector{obj})}));
  Reconciler r(u, logs);
  // No common targets ⇒ safe both ways, despite the hostile order method.
  EXPECT_TRUE(r.relations().independent(ActionId(0), ActionId(1)));
  EXPECT_TRUE(r.relations().independent(ActionId(1), ActionId(0)));
}

TEST(EdgeCases, MaxStepsLimitStopsSearch) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  for (int i = 0; i < 4; ++i) {
    logs.push_back(make_log("l" + std::to_string(i),
                            {std::make_shared<IncrementAction>(c, 1)}));
  }
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.limits.max_steps = 5;
  Reconciler r(u, logs, opts);
  const auto result = r.run();
  EXPECT_TRUE(result.stats.hit_limit);
  EXPECT_LE(result.stats.sim_steps, 6u);
}

TEST(EdgeCases, WallClockLimitStopsSearch) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  for (int i = 0; i < 10; ++i) {
    logs.push_back(make_log("l" + std::to_string(i),
                            {std::make_shared<IncrementAction>(c, 1)}));
  }
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;       // 10! schedules — far too many
  opts.limits.max_schedules = UINT64_MAX; // only the clock can stop it
  opts.limits.max_seconds = 0.05;
  Reconciler r(u, logs, opts);
  const auto result = r.run();
  EXPECT_TRUE(result.stats.hit_limit);
  EXPECT_LT(result.stats.elapsed_seconds, 5.0);  // stopped promptly
}

TEST(EdgeCases, KeepOutcomesZeroIsClampedToOne) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  logs.push_back(make_log("a", {std::make_shared<IncrementAction>(c, 1)}));
  ReconcilerOptions opts;
  opts.keep_outcomes = 0;
  Reconciler r(u, logs, opts);
  const auto result = r.run();
  EXPECT_EQ(result.outcomes.size(), 1u);
}

TEST(EdgeCases, PartialOutcomesCanBeSuppressed) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  logs.push_back(make_log("a", {std::make_shared<DecrementAction>(c, 1)}));
  ReconcilerOptions opts;
  opts.record_partial_outcomes = false;
  Reconciler r(u, logs, opts);
  const auto result = r.run();
  // The only branch dead-ends; with partial recording off, no outcome.
  EXPECT_FALSE(result.found_any());
  EXPECT_EQ(result.stats.dead_ends, 1u);
}

TEST(EdgeCases, StrictRandomSeedChangesPicksNotCorrectness) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(make_log("l" + std::to_string(i),
                            {std::make_shared<IncrementAction>(c, 1 << i)}));
  }
  for (const std::uint64_t seed : {0ull, 1ull, 2ull, 99ull}) {
    ReconcilerOptions opts;
    opts.heuristic = Heuristic::kStrict;
    opts.strict_pick_seed = seed;
    Reconciler r(u, logs, opts);
    const auto result = r.run();
    ASSERT_TRUE(result.found_any()) << "seed " << seed;
    EXPECT_TRUE(result.best().complete) << "seed " << seed;
    EXPECT_EQ(result.best().final_state.as<Counter>(c).value(), 7)
        << "seed " << seed;
  }
}

TEST(EdgeCases, MultiTargetActionBridgesObjects) {
  // An action targeting two registers is ordered by both order methods.
  Universe u;
  const ObjectId r1 = u.add(std::make_unique<RwRegister>(0));
  const ObjectId r2 = u.add(std::make_unique<RwRegister>(0));

  /// Writes both registers.
  class DoubleWrite final : public SimpleAction {
   public:
    DoubleWrite(ObjectId a, ObjectId b)
        : SimpleAction(Tag("write", {1}), {a, b}), a_(a), b_(b) {}
    [[nodiscard]] bool precondition(const Universe&) const override {
      return true;
    }
    bool execute(Universe& uu) const override {
      uu.as<RwRegister>(a_).write(1);
      uu.as<RwRegister>(b_).write(1);
      return true;
    }

   private:
    ObjectId a_, b_;
  };

  std::vector<Log> logs;
  logs.push_back(make_log("w", {std::make_shared<DoubleWrite>(r1, r2)}));
  logs.push_back(make_log("r", {std::make_shared<ReadAction>(r2)}));
  Reconciler r(u, logs);
  // write-before-read unsafe via the *common* target r2.
  EXPECT_TRUE(r.relations().depends(ActionId(1), ActionId(0)));
}

TEST(EdgeCases, SelectionPrefersCompleteOnEqualCost) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  logs.push_back(make_log("a", {std::make_shared<IncrementAction>(c, 1)}));
  logs.push_back(make_log("b", {std::make_shared<DecrementAction>(c, 9)}));

  /// Flat cost: everything ties; completeness must break the tie.
  class FlatCost final : public Policy {
   public:
    double cost(const Outcome&) override { return 0; }
  };
  FlatCost policy;
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.failure_mode = FailureMode::kSkipAction;
  Reconciler r(u, logs, opts, &policy);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_TRUE(result.best().complete);
}

TEST(EdgeCases, EmptyProblemYieldsTheEmptyCompleteSchedule) {
  Universe u;
  Reconciler r(u, {});
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_TRUE(result.best().complete);
  EXPECT_TRUE(result.best().schedule.empty());
  EXPECT_EQ(result.stats.schedules_explored(), 1u);
}

TEST(EdgeCases, DescribeEmptySchedule) {
  Universe u;
  Reconciler r(u, {});
  EXPECT_EQ(r.describe_schedule({}), "");
}

TEST(EdgeCases, UnnamedLogGetsNumericLabel) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  Log anonymous;  // no name
  anonymous.append(std::make_shared<IncrementAction>(c, 1));
  std::vector<Log> logs{anonymous};
  Reconciler r(u, logs);
  const auto result = r.run();
  const std::string text = r.describe_schedule(result.best().schedule);
  EXPECT_NE(text.find("log0:0"), std::string::npos);
}

}  // namespace
}  // namespace icecube
