// Tests for interactive feedback (§2's pipeline with feedback loops, §4.3's
// immediate feedback): `Policy::on_outcome` sees every outcome while
// `Reconciler::run()` searches, so the incumbent is visible mid-search and
// the application can stop early and keep what was found.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/reconciler.hpp"
#include "jigsaw/experiment.hpp"
#include "objects/counter.hpp"
#include "test_helpers.hpp"

namespace icecube {
namespace {

using testing::make_log;

/// Three independent one-increment logs: 3! = 6 schedules under H=All.
struct SmallProblem {
  Universe universe;
  ObjectId counter;
  std::vector<Log> logs;

  SmallProblem() {
    counter = universe.add(std::make_unique<Counter>(0));
    for (int i = 0; i < 3; ++i) {
      logs.push_back(make_log(
          "l" + std::to_string(i),
          {std::make_shared<IncrementAction>(counter, 1 << i)}));
    }
  }
};

ReconcilerOptions all_options() {
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  return opts;
}

/// Records every outcome the search hands over; stops after `stop_after`
/// of them (0 = never).
class RecordingPolicy : public Policy {
 public:
  explicit RecordingPolicy(std::size_t stop_after = 0)
      : stop_after_(stop_after) {}

  bool on_outcome(const Outcome& outcome) override {
    seen.push_back(outcome);
    return stop_after_ == 0 || seen.size() < stop_after_;
  }

  std::vector<Outcome> seen;

 private:
  std::size_t stop_after_;
};

TEST(Incremental, IncumbentAvailableBetweenSlices) {
  SmallProblem p;
  RecordingPolicy policy;
  Reconciler r(p.universe, p.logs, all_options(), &policy);
  const auto result = r.run();
  // The first schedule's outcome, final state included, reached the
  // application while five schedules were still to come.
  ASSERT_EQ(policy.seen.size(), 6u);
  EXPECT_TRUE(policy.seen.front().complete);
  EXPECT_EQ(policy.seen.front().final_state.as<Counter>(p.counter).value(),
            7);
  EXPECT_EQ(result.stats.schedules_explored(), 6u);
}

TEST(Incremental, EarlyStopKeepsIncumbent) {
  SmallProblem p;
  RecordingPolicy policy(/*stop_after=*/1);  // abandon the rest
  Reconciler r(p.universe, p.logs, all_options(), &policy);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_TRUE(result.best().complete);
  EXPECT_EQ(result.best().final_state.as<Counter>(p.counter).value(), 7);
  EXPECT_EQ(result.stats.schedules_explored(), 1u);
}

TEST(Incremental, CrossesCutsetBoundaries) {
  // Two mutually-unsafe actions → 2 cutsets, each a 1-action search; the
  // outcomes the application sees come from both.
  Universe u;
  const ObjectId obj = u.add(std::make_unique<testing::ScriptedObject>(
      [](const Action&, const Action&, LogRelation) {
        return Constraint::kUnsafe;
      }));
  std::vector<Log> logs;
  logs.push_back(make_log("a", {std::make_shared<testing::NopAction>(
                                   "p", std::vector{obj})}));
  logs.push_back(make_log("b", {std::make_shared<testing::NopAction>(
                                   "q", std::vector{obj})}));
  RecordingPolicy policy;
  Reconciler r(u, logs, {}, &policy);
  const auto result = r.run();
  EXPECT_EQ(result.stats.schedules_completed, 2u);
  ASSERT_EQ(result.cutsets.size(), 2u);
  std::set<std::vector<ActionId>> cutsets_seen;
  for (const Outcome& o : policy.seen) cutsets_seen.insert(o.cutset);
  EXPECT_EQ(cutsets_seen.size(), 2u);
}

/// Stops the search once an outcome has every piece of the board correct.
class StopWhenSolved final : public jigsaw::JigsawPolicy {
 public:
  explicit StopWhenSolved(ObjectId board_id)
      : JigsawPolicy(board_id), board_id_(board_id) {}

  bool on_outcome(const Outcome& outcome) override {
    const auto& board = outcome.final_state.as<jigsaw::Board>(board_id_);
    return board.correct_pieces() < board.rows() * board.cols();
  }

 private:
  ObjectId board_id_;
};

TEST(Incremental, InteractiveJigsawFindsOptimumInFirstSlices) {
  // The paper's interactive-feedback scenario: the E2 game under H=All
  // finds the 16-piece optimum within the first couple of schedules; an
  // interactive application can show it and stop long before the sweep
  // would finish.
  using K = jigsaw::PlayerSpec::Kind;
  const jigsaw::Problem p =
      jigsaw::make_problem(4, 4, jigsaw::Board::OrderCase::kKeepLogOrder,
                           {{K::kU1, 7}, {K::kU2, 12}});
  StopWhenSolved policy(p.board_id);
  Reconciler r(p.initial, p.logs, all_options(), &policy);
  const auto result = r.run();
  const auto& board = result.best().final_state.as<jigsaw::Board>(p.board_id);
  EXPECT_EQ(board.correct_pieces(), 16);
  EXPECT_LE(result.stats.schedules_explored(), 2u);
}

/// Jigsaw costs plus the record of every outcome's cost.
class CostTrace final : public jigsaw::JigsawPolicy {
 public:
  using JigsawPolicy::JigsawPolicy;

  bool on_outcome(const Outcome& outcome) override {
    costs.push_back(outcome.cost);
    return true;
  }

  std::vector<double> costs;
};

TEST(Incremental, BestCostNeverWorsens) {
  using K = jigsaw::PlayerSpec::Kind;
  const jigsaw::Problem p =
      jigsaw::make_problem(3, 3, jigsaw::Board::OrderCase::kKeepJoinOrder,
                           {{K::kU1, 5}, {K::kU3, 6, 3}});
  CostTrace policy(p.board_id);
  ReconcilerOptions opts = all_options();
  opts.failure_mode = FailureMode::kSkipAction;
  opts.limits.max_schedules = 5000;
  Reconciler r(p.initial, p.logs, opts, &policy);
  const auto result = r.run();

  // One call per explored schedule, in search order. The returned best is
  // no worse than anything the application was shown, and it was shown at
  // the schedule the statistics name.
  ASSERT_EQ(policy.costs.size(), result.stats.schedules_explored());
  const double best = result.best().cost;
  for (const double cost : policy.costs) EXPECT_LE(best, cost);
  ASSERT_GE(result.stats.schedules_to_best, 1u);
  EXPECT_EQ(policy.costs[result.stats.schedules_to_best - 1], best);
}

}  // namespace
}  // namespace icecube
