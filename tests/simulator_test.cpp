// Tests for the interleaved scheduling/simulation stage (§3.4) and the
// policy hooks (§3.5), driven through the Reconciler facade.
#include <gtest/gtest.h>

#include <memory>

#include "core/reconciler.hpp"
#include "objects/counter.hpp"
#include "test_helpers.hpp"

namespace icecube {
namespace {

using testing::make_log;
using testing::NopAction;
using testing::ScriptedObject;

/// Universe with one counter at `initial`.
struct CounterFixture {
  Universe universe;
  ObjectId counter;

  explicit CounterFixture(std::int64_t initial) {
    counter = universe.add(std::make_unique<Counter>(initial));
  }
};

TEST(Simulator, SingleActionCompletes) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(make_log(
      "a", {std::make_shared<IncrementAction>(fx.counter, 5)}));
  Reconciler r(fx.universe, logs);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_TRUE(result.best().complete);
  EXPECT_EQ(result.best().schedule.size(), 1u);
  EXPECT_EQ(result.best().final_state.as<Counter>(fx.counter).value(), 5);
  EXPECT_EQ(result.stats.schedules_completed, 1u);
}

TEST(Simulator, PreconditionFailureAbortsBranch) {
  // dec 3 on an empty counter can only run after the inc.
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<IncrementAction>(fx.counter, 5)}));
  logs.push_back(
      make_log("b", {std::make_shared<DecrementAction>(fx.counter, 3)}));
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  Reconciler r(fx.universe, logs, opts);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_completed, 1u);
  EXPECT_GE(result.stats.precondition_failures, 1u);
  EXPECT_TRUE(result.best().complete);
  EXPECT_EQ(result.best().final_state.as<Counter>(fx.counter).value(), 2);
}

TEST(Simulator, DeadEndRecordsPartialOutcome) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<DecrementAction>(fx.counter, 3)}));
  Reconciler r(fx.universe, logs);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_FALSE(result.best().complete);
  EXPECT_TRUE(result.best().schedule.empty());
  EXPECT_EQ(result.stats.dead_ends, 1u);
  EXPECT_EQ(result.stats.schedules_completed, 0u);
}

TEST(Simulator, SkipActionModeDropsFailingAction) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<DecrementAction>(fx.counter, 3),
                     std::make_shared<IncrementAction>(fx.counter, 1)}));
  ReconcilerOptions opts;
  opts.failure_mode = FailureMode::kSkipAction;
  Reconciler r(fx.universe, logs, opts);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  const Outcome& best = result.best();
  EXPECT_TRUE(best.complete);
  ASSERT_EQ(best.skipped.size(), 1u);
  EXPECT_EQ(best.skipped[0], ActionId(0));
  EXPECT_EQ(best.schedule, std::vector<ActionId>{ActionId(1)});
  EXPECT_EQ(best.final_state.as<Counter>(fx.counter).value(), 1);
}

TEST(Simulator, SkipUnlocksDependentActions) {
  // 1 depends on 0 (scripted unsafe(1,0) ⇒ 0 D 1... we need 0 before 1);
  // 0 always fails; in skip mode 1 must still run.
  Universe u;
  const ObjectId obj = u.add(std::make_unique<ScriptedObject>(
      [](const Action& a, const Action& b, LogRelation) {
        // Force "first before second": second-before-first is unsafe.
        if (a.tag().op == "second" && b.tag().op == "first")
          return Constraint::kUnsafe;
        return Constraint::kMaybe;
      }));
  const ObjectId counter = u.add(std::make_unique<Counter>(0));

  /// Failing action: decrement below zero, but with the scripted target for
  /// ordering purposes.
  class FailingAction final : public SimpleAction {
   public:
    FailingAction(ObjectId scripted, ObjectId counter)
        : SimpleAction(Tag("first"), {scripted}), counter_(counter) {}
    [[nodiscard]] bool precondition(const Universe& uu) const override {
      return uu.as<Counter>(counter_).value() >= 1;  // never true here
    }
    bool execute(Universe&) const override { return true; }

   private:
    ObjectId counter_;
  };

  std::vector<Log> logs;
  Log l0("x");
  l0.append(std::make_shared<FailingAction>(obj, counter));
  std::vector<Log> two;
  Log l1("y");
  l1.append(std::make_shared<NopAction>("second", std::vector{obj}));
  two.push_back(std::move(l0));
  two.push_back(std::move(l1));

  ReconcilerOptions opts;
  opts.failure_mode = FailureMode::kSkipAction;
  Reconciler r(u, two, opts);
  ASSERT_TRUE(r.relations().depends(ActionId(0), ActionId(1)));
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_TRUE(result.best().complete);
  EXPECT_EQ(result.best().schedule, std::vector<ActionId>{ActionId(1)});
  EXPECT_EQ(result.best().skipped, std::vector<ActionId>{ActionId(0)});
}

TEST(Simulator, MaxSchedulesLimitStopsSearch) {
  // Three independent increments: 3! = 6 interleavings under H=All.
  CounterFixture fx(0);
  std::vector<Log> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(make_log(
        "l" + std::to_string(i),
        {std::make_shared<IncrementAction>(fx.counter, i + 1)}));
  }
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.limits.max_schedules = 2;
  Reconciler r(fx.universe, logs, opts);
  const auto result = r.run();
  EXPECT_TRUE(result.stats.hit_limit);
  EXPECT_EQ(result.stats.schedules_explored(), 2u);
}

TEST(Simulator, AllHeuristicEnumeratesAllInterleavings) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(make_log(
        "l" + std::to_string(i),
        {std::make_shared<IncrementAction>(fx.counter, 1)}));
  }
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  Reconciler r(fx.universe, logs, opts);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_completed, 6u);  // 3!
}

TEST(Simulator, StopAtFirstCompleteShortCircuits) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(make_log(
        "l" + std::to_string(i),
        {std::make_shared<IncrementAction>(fx.counter, 1)}));
  }
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  testing::StopAtFirstComplete first;
  Reconciler r(fx.universe, logs, opts, &first);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_completed, 1u);
}

TEST(Simulator, TimeToBestIsRecorded) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<IncrementAction>(fx.counter, 5)}));
  Reconciler r(fx.universe, logs);
  const auto result = r.run();
  ASSERT_TRUE(result.stats.time_to_best.has_value());
  EXPECT_GE(*result.stats.time_to_best, 0.0);
  EXPECT_GE(result.stats.schedules_to_best, 1u);
}

TEST(Simulator, FailureMemoizationSavesWorkOnMultiObjectWorkloads) {
  // §6: an action's dynamic outcome depends only on its targets' causal
  // context. With several independent counters, a doomed decrement is
  // re-attempted after many interleavings of *unrelated* actions — all with
  // the same causal key, so one failure answers them all.
  Universe u;
  std::vector<ObjectId> counters;
  for (int i = 0; i < 4; ++i) {
    counters.push_back(u.add(std::make_unique<Counter>(0)));
  }
  std::vector<Log> logs;
  // Log a: increments on counters 1..3 (all independent of counter 0).
  logs.push_back(
      make_log("a", {std::make_shared<IncrementAction>(counters[1], 1),
                     std::make_shared<IncrementAction>(counters[2], 1),
                     std::make_shared<IncrementAction>(counters[3], 1)}));
  // Log b: a decrement on counter 0 that can never succeed.
  logs.push_back(
      make_log("b", {std::make_shared<DecrementAction>(counters[0], 5)}));

  auto run_with = [&](bool memoize) {
    ReconcilerOptions opts;
    opts.heuristic = Heuristic::kAll;
    opts.memoize_failures = memoize;
    Reconciler r(u, logs, opts);
    return r.run();
  };
  const auto plain = run_with(false);
  const auto memo = run_with(true);

  // Identical search shape and outcome...
  EXPECT_EQ(memo.stats.schedules_explored(), plain.stats.schedules_explored());
  EXPECT_EQ(memo.best().schedule, plain.best().schedule);
  // ...but only the first doomed attempt is actually simulated.
  EXPECT_GT(memo.stats.memoized_failures, 0u);
  EXPECT_EQ(memo.stats.precondition_failures, 1u);
  EXPECT_EQ(memo.stats.memoized_failures + memo.stats.precondition_failures,
            plain.stats.precondition_failures);
}

TEST(Simulator, FailureMemoizationDistinguishesCausalContexts) {
  // dec 1 on a counter fails with an empty context but succeeds after the
  // inc: the causal key must separate the two.
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  const ObjectId other = u.add(std::make_unique<Counter>(0));
  std::vector<Log> logs;
  logs.push_back(make_log("a", {std::make_shared<IncrementAction>(c, 1)}));
  logs.push_back(make_log("b", {std::make_shared<DecrementAction>(c, 1)}));
  logs.push_back(
      make_log("x", {std::make_shared<IncrementAction>(other, 1)}));

  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.memoize_failures = true;
  Reconciler r(u, logs, opts);
  const auto result = r.run();
  // Complete schedules exist (inc before dec) and were found despite the
  // memoized failures of dec-with-empty-context.
  EXPECT_GT(result.stats.schedules_completed, 0u);
  EXPECT_TRUE(result.best().complete);
  EXPECT_EQ(result.best().final_state.as<Counter>(c).value(), 0);
}

// ---------------------------------------------------------------------------
// Policy hooks.

TEST(PolicyHooks, OrderCandidatesControlsExplorationOrder) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<IncrementAction>(fx.counter, 1)}));
  logs.push_back(
      make_log("b", {std::make_shared<IncrementAction>(fx.counter, 2)}));

  /// Explores descending-id first and stops at the first complete schedule.
  class ReversePolicy final : public Policy {
   public:
    void order_candidates(const PrefixView&,
                          std::vector<ActionId>& c) override {
      std::reverse(c.begin(), c.end());
    }
    bool on_outcome(const Outcome& outcome) override {
      return !outcome.complete;
    }
  };
  ReversePolicy policy;
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  Reconciler r(fx.universe, logs, opts, &policy);
  const auto result = r.run();
  ASSERT_TRUE(result.best().complete);
  EXPECT_EQ(result.best().schedule,
            (std::vector<ActionId>{ActionId(1), ActionId(0)}));
}

TEST(PolicyHooks, KeepPrefixPrunesSubtrees) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<IncrementAction>(fx.counter, 1)}));
  logs.push_back(
      make_log("b", {std::make_shared<IncrementAction>(fx.counter, 2)}));

  /// Rejects every prefix starting with action 0.
  class PrunePolicy final : public Policy {
   public:
    bool keep_prefix(const PrefixView& prefix, const Universe&) override {
      return prefix.actions.empty() || prefix.actions.front() != ActionId(0);
    }
  };
  PrunePolicy policy;
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  Reconciler r(fx.universe, logs, opts, &policy);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_completed, 1u);  // only [1, 0]
  EXPECT_GE(result.stats.prefix_prunes, 1u);
  EXPECT_EQ(result.best().schedule.front(), ActionId(1));
}

TEST(PolicyHooks, ExtraDependenciesConstrainOrder) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<IncrementAction>(fx.counter, 1)}));
  logs.push_back(
      make_log("b", {std::make_shared<IncrementAction>(fx.counter, 2)}));

  /// Requires action 1 to precede action 0, unconditionally.
  class DepPolicy final : public Policy {
   public:
    void extra_dependencies(
        const PrefixView&,
        std::vector<std::pair<ActionId, ActionId>>& out) override {
      out.emplace_back(ActionId(1), ActionId(0));
    }
  };
  DepPolicy policy;
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  Reconciler r(fx.universe, logs, opts, &policy);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_completed, 1u);
  EXPECT_EQ(result.best().schedule,
            (std::vector<ActionId>{ActionId(1), ActionId(0)}));
}

TEST(PolicyHooks, OnFailureReceivesFailingAction) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<DecrementAction>(fx.counter, 3)}));

  class FailureWatcher final : public Policy {
   public:
    void on_failure(const PrefixView&, const Universe&, ActionId failed,
                    FailureKind kind) override {
      ++failures;
      last_failed = failed;
      last_kind = kind;
    }
    int failures = 0;
    ActionId last_failed;
    FailureKind last_kind = FailureKind::kExecution;
  };
  FailureWatcher policy;
  Reconciler r(fx.universe, logs, {}, &policy);
  (void)r.run();
  EXPECT_EQ(policy.failures, 1);
  EXPECT_EQ(policy.last_failed, ActionId(0));
  EXPECT_EQ(policy.last_kind, FailureKind::kPrecondition);
}

TEST(PolicyHooks, OnOutcomeFalseStopsSearch) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  for (int i = 0; i < 3; ++i) {
    logs.push_back(make_log(
        "l" + std::to_string(i),
        {std::make_shared<IncrementAction>(fx.counter, 1)}));
  }
  class OneShot final : public Policy {
   public:
    bool on_outcome(const Outcome&) override { return false; }
  };
  OneShot policy;
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  Reconciler r(fx.universe, logs, opts, &policy);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_explored(), 1u);
}

TEST(PolicyHooks, CustomCostRanksOutcomes) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  logs.push_back(
      make_log("a", {std::make_shared<IncrementAction>(fx.counter, 1)}));
  logs.push_back(
      make_log("b", {std::make_shared<IncrementAction>(fx.counter, 2)}));

  /// Prefers schedules that run action 1 first.
  class PickyPolicy final : public Policy {
   public:
    double cost(const Outcome& o) override {
      if (!o.schedule.empty() && o.schedule.front() == ActionId(1)) return -1;
      return 0;
    }
  };
  PickyPolicy policy;
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  Reconciler r(fx.universe, logs, opts, &policy);
  const auto result = r.run();
  ASSERT_GE(result.outcomes.size(), 2u);
  EXPECT_EQ(result.best().schedule.front(), ActionId(1));
  EXPECT_EQ(result.best().cost, -1);
}

TEST(PolicyHooks, KeepOutcomesBoundsRetention) {
  CounterFixture fx(0);
  std::vector<Log> logs;
  for (int i = 0; i < 4; ++i) {
    logs.push_back(make_log(
        "l" + std::to_string(i),
        {std::make_shared<IncrementAction>(fx.counter, 1)}));
  }
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.keep_outcomes = 3;
  Reconciler r(fx.universe, logs, opts);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_completed, 24u);  // 4!
  EXPECT_EQ(result.outcomes.size(), 3u);
}

}  // namespace
}  // namespace icecube
