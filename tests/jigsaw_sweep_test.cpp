// Parameterized sweeps over the jigsaw experiment space: board sizes,
// scenario mixes, order cases, heuristics — checking structural invariants
// everywhere rather than exact values.
#include <gtest/gtest.h>

#include <tuple>

#include "jigsaw/experiment.hpp"
#include "test_helpers.hpp"

namespace icecube::jigsaw {
namespace {

using K = PlayerSpec::Kind;

// ---------------------------------------------------------------------------
// Sweep 1: board sizes x order cases, clean two-player games.

using SizeCaseParam = std::tuple<int, Board::OrderCase>;

class BoardSizeSweep : public ::testing::TestWithParam<SizeCaseParam> {};

TEST_P(BoardSizeSweep, CleanSplitGamesReconcileToFullBoard) {
  const auto [side, order_case] = GetParam();
  const int pieces = side * side;
  // Non-overlapping halves: U1 takes the top, U2 the bottom.
  const Problem p = make_problem(side, side, order_case,
                                 {{K::kU1, pieces / 2}, {K::kU2, pieces / 2}});
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kSafe;
  opts.failure_mode = FailureMode::kAbortBranch;
  opts.limits.max_schedules = 20000;
  const auto r = run_experiment(p, opts);
  EXPECT_EQ(r.best.correct, pieces) << "side " << side;
  EXPECT_EQ(r.best.pieces, pieces);
  EXPECT_LE(r.best.actions, pieces);
  EXPECT_EQ(r.stats.schedules_to_best, 1u);  // first schedule optimal
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCases, BoardSizeSweep,
    ::testing::Combine(::testing::Values(2, 4, 6),
                       ::testing::Values(Board::OrderCase::kSemantic,
                                         Board::OrderCase::kKeepLogOrder,
                                         Board::OrderCase::kKeepJoinOrder,
                                         Board::OrderCase::kAdjacency)));

// ---------------------------------------------------------------------------
// Sweep 2: heuristics x failure modes on the paper's overlapping game.

using EngineParam = std::tuple<Heuristic, FailureMode>;

class EngineSweep : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineSweep, OverlappingGameInvariants) {
  const auto [heuristic, failure_mode] = GetParam();
  const Problem p = make_problem(4, 4, Board::OrderCase::kKeepLogOrder,
                                 {{K::kU1, 7}, {K::kU2, 12}});
  ReconcilerOptions opts;
  opts.heuristic = heuristic;
  opts.failure_mode = failure_mode;
  opts.limits.max_schedules = 60000;
  const auto r = run_experiment(p, opts);

  // Regardless of configuration: the board never exceeds 16 pieces, the
  // best is at least one whole log (12 pieces), and every placed piece in
  // the incumbent is correct (both scenarios only place correct pieces).
  EXPECT_LE(r.best.pieces, 16);
  EXPECT_GE(r.best.pieces, 12);
  EXPECT_EQ(r.best.correct, r.best.pieces);
  // The heuristics explore no more than All does (within this cap).
  if (heuristic != Heuristic::kAll) {
    EXPECT_LE(r.stats.schedules_explored(), 100u);
  }
  // Complete schedules only exist when failures may be dropped.
  if (failure_mode == FailureMode::kAbortBranch) {
    EXPECT_EQ(r.stats.schedules_completed, 0u);
  } else {
    EXPECT_TRUE(r.best_complete);
    EXPECT_EQ(r.best.pieces, 16);
  }
}

INSTANTIATE_TEST_SUITE_P(
    HeuristicsAndFailureModes, EngineSweep,
    ::testing::Combine(::testing::Values(Heuristic::kAll, Heuristic::kSafe,
                                         Heuristic::kStrict),
                       ::testing::Values(FailureMode::kAbortBranch,
                                         FailureMode::kSkipAction)));

// ---------------------------------------------------------------------------
// Sweep 3: action-count growth ("we varied ... the number of actions in
// each scenario, up to the maximum number of pieces").

class ActionCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(ActionCountSweep, SafeHeuristicStaysFlatAsLogsGrow) {
  const int per_player = GetParam();
  const Problem p = make_problem(6, 6, Board::OrderCase::kKeepLogOrder,
                                 {{K::kU1, per_player}, {K::kU2, per_player}});
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kSafe;
  opts.failure_mode = FailureMode::kSkipAction;
  const auto r = run_experiment(p, opts);
  // The Safe heuristic chains logs: schedule count is constant in log size.
  EXPECT_LE(r.stats.schedules_explored(), 4u) << per_player << " per player";
  // Work scales linearly, never combinatorially.
  EXPECT_LE(r.stats.sim_steps,
            16u * static_cast<std::uint64_t>(per_player) + 64u);
  EXPECT_TRUE(r.best_complete);
}

INSTANTIATE_TEST_SUITE_P(Growth, ActionCountSweep,
                         ::testing::Values(6, 12, 18, 24, 30, 36));

// ---------------------------------------------------------------------------
// Sweep 4: U3 randomness never breaks engine invariants.

class U3Robustness : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(U3Robustness, TwoRandomPlayersReconcileWithinBudget) {
  const Problem p = make_problem(
      4, 4, Board::OrderCase::kKeepJoinOrder,
      {{K::kU3, 10, GetParam()}, {K::kU3, 10, GetParam() + 500}});
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.failure_mode = FailureMode::kSkipAction;
  opts.limits.max_schedules = 10000;
  const auto r = run_experiment(p, opts);
  EXPECT_GE(r.best.pieces, 0);
  EXPECT_LE(r.best.pieces, 16);
  EXPECT_LE(r.best.correct, r.best.pieces);
  EXPECT_GE(r.outcome_count, 1u);
  EXPECT_LE(r.stats.schedules_explored(), 10000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, U3Robustness,
                         ::testing::Range<std::uint64_t>(1, 16));

}  // namespace
}  // namespace icecube::jigsaw
