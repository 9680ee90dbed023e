// Tests for the workload generators: determinism, log correctness, spec
// compliance — plus randomized cross-substrate reconciliation properties
// they enable.
#include <gtest/gtest.h>

#include "baseline/temporal_merge.hpp"
#include "core/reconciler.hpp"
#include "objects/calendar.hpp"
#include "objects/counter.hpp"
#include "objects/file_system.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using workload::calendar_workload;
using workload::CalendarSpec;
using workload::counter_workload;
using workload::CounterSpec;
using workload::fs_workload;
using workload::FsSpec;
using workload::Generated;

/// Replays every log of `g` against the initial state; all actions must
/// succeed (the §2.1 correctness invariant).
void expect_logs_correct(const Generated& g) {
  for (const Log& log : g.logs) {
    Universe state = g.initial;
    for (const auto& action : log) {
      ASSERT_TRUE(action->precondition(state)) << log.name();
      ASSERT_TRUE(action->execute(state)) << log.name();
    }
  }
}

std::vector<std::string> tags_of(const Generated& g) {
  std::vector<std::string> out;
  for (const Log& log : g.logs) {
    for (const auto& a : log) out.push_back(a->tag().describe());
  }
  return out;
}

TEST(CounterWorkload, DeterministicPerSeed) {
  CounterSpec spec;
  spec.seed = 7;
  EXPECT_EQ(tags_of(counter_workload(spec)), tags_of(counter_workload(spec)));
  CounterSpec other = spec;
  other.seed = 8;
  EXPECT_NE(tags_of(counter_workload(spec)), tags_of(counter_workload(other)));
}

TEST(CounterWorkload, MatchesSpecAndIsCorrect) {
  CounterSpec spec;
  spec.replicas = 4;
  spec.actions_per_replica = 6;
  const Generated g = counter_workload(spec);
  ASSERT_EQ(g.logs.size(), 4u);
  for (const Log& log : g.logs) EXPECT_EQ(log.size(), 6u);
  expect_logs_correct(g);
}

TEST(FsWorkload, MatchesSpecAndIsCorrect) {
  FsSpec spec;
  spec.replicas = 3;
  spec.actions_per_replica = 5;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FsSpec s = spec;
    s.seed = seed;
    const Generated g = fs_workload(s);
    ASSERT_EQ(g.logs.size(), 3u);
    for (const Log& log : g.logs) EXPECT_EQ(log.size(), 5u) << "seed " << seed;
    expect_logs_correct(g);
  }
}

TEST(FsWorkload, ProducesAllThreeOperationKinds) {
  FsSpec spec;
  spec.replicas = 2;
  spec.actions_per_replica = 20;
  bool saw_mkdir = false, saw_write = false, saw_delete = false;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    FsSpec s = spec;
    s.seed = seed;
    for (const std::string& tag : tags_of(fs_workload(s))) {
      saw_mkdir = saw_mkdir || tag.starts_with("mkdir");
      saw_write = saw_write || tag.starts_with("fswrite");
      saw_delete = saw_delete || tag.starts_with("fsdelete");
    }
  }
  EXPECT_TRUE(saw_mkdir);
  EXPECT_TRUE(saw_write);
  EXPECT_TRUE(saw_delete);
}

TEST(CalendarWorkload, MatchesSpecAndIsCorrect) {
  CalendarSpec spec;
  spec.users = 4;
  spec.actions_per_user = 3;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CalendarSpec s = spec;
    s.seed = seed;
    const Generated g = calendar_workload(s);
    ASSERT_EQ(g.logs.size(), 4u);
    EXPECT_EQ(g.initial.size(), 4u);
    expect_logs_correct(g);
  }
}

TEST(TextWorkload, MatchesSpecAndIsCorrect) {
  workload::TextSpec spec;
  spec.replicas = 3;
  spec.actions_per_replica = 4;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::TextSpec s = spec;
    s.seed = seed;
    const Generated g = workload::text_workload(s);
    ASSERT_EQ(g.logs.size(), 3u);
    for (const Log& log : g.logs) EXPECT_EQ(log.size(), 4u) << "seed " << seed;
    expect_logs_correct(g);
  }
}

TEST(LineWorkload, MatchesSpecAndIsCorrect) {
  workload::LineSpec spec;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::LineSpec s = spec;
    s.seed = seed;
    const Generated g = workload::line_workload(s);
    ASSERT_EQ(g.logs.size(), 2u);
    expect_logs_correct(g);
  }
}

// ---------------------------------------------------------------------------
// Randomized reconciliation properties across substrates.

class WorkloadSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WorkloadSweep, CounterReconciliationBeatsOrMatchesFixedOrder) {
  CounterSpec spec;
  spec.seed = GetParam();
  spec.replicas = 3;
  spec.actions_per_replica = 4;
  const Generated g = counter_workload(spec);

  const MergeReport fixed =
      temporal_merge(g.initial, g.logs, MergeOrder::kConcatenate);

  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.failure_mode = FailureMode::kSkipAction;
  opts.limits.max_schedules = 20000;
  Reconciler r(g.initial, g.logs, opts);
  const auto ice = r.run();
  ASSERT_TRUE(ice.found_any()) << "seed " << GetParam();
  // The default cost maximises applied actions: the search can only do at
  // least as well as one fixed order.
  EXPECT_GE(ice.best().schedule.size(), fixed.applied) << "seed "
                                                       << GetParam();
  // Invariant held everywhere.
  EXPECT_GE(ice.best().final_state.as<Counter>(ObjectId(0)).value(), 0);
}

TEST_P(WorkloadSweep, FsReconciliationRespectsInvariants) {
  FsSpec spec;
  spec.seed = GetParam();
  const Generated g = fs_workload(spec);
  ReconcilerOptions opts;
  opts.failure_mode = FailureMode::kSkipAction;
  opts.limits.max_schedules = 20000;
  Reconciler r(g.initial, g.logs, opts);
  const auto ice = r.run();
  ASSERT_TRUE(ice.found_any()) << "seed " << GetParam();
  // Replay check: schedule reproduces the final state.
  Universe replay = r.initial_state();
  for (ActionId id : ice.best().schedule) {
    const Action& a = *r.records()[id.index()].action;
    ASSERT_TRUE(a.precondition(replay)) << "seed " << GetParam();
    ASSERT_TRUE(a.execute(replay)) << "seed " << GetParam();
  }
  EXPECT_EQ(replay.fingerprint(), ice.best().final_state.fingerprint());
}

TEST_P(WorkloadSweep, CalendarReconciliationDropsNothingItCouldKeep) {
  CalendarSpec spec;
  spec.seed = GetParam();
  spec.users = 3;
  spec.actions_per_user = 2;
  const Generated g = calendar_workload(spec);
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.failure_mode = FailureMode::kSkipAction;
  opts.limits.max_schedules = 20000;
  Reconciler r(g.initial, g.logs, opts);
  const auto ice = r.run();
  ASSERT_TRUE(ice.found_any()) << "seed " << GetParam();
  const MergeReport fixed =
      temporal_merge(g.initial, g.logs, MergeOrder::kRoundRobin);
  EXPECT_GE(ice.best().schedule.size(), fixed.applied)
      << "seed " << GetParam();
}

TEST_P(WorkloadSweep, TextReconciliationCompletesAndReplays) {
  // Whole-log OT chains are declared safe as a *heuristic* (the TP2-class
  // puzzle of exact multi-edit convergence is documented out of scope, as
  // in the paper); what must always hold is that the merge completes, no
  // edit is silently half-applied, and the outcome replays exactly.
  workload::TextSpec spec;
  spec.seed = GetParam();
  const Generated g = workload::text_workload(spec);

  ReconcilerOptions opts;
  opts.failure_mode = FailureMode::kSkipAction;
  opts.limits.max_schedules = 10000;
  testing::StopAtFirstComplete first;
  Reconciler r(g.initial, g.logs, opts, &first);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any()) << "seed " << GetParam();
  EXPECT_TRUE(result.best().complete) << "seed " << GetParam();

  Universe replay = r.initial_state();
  for (ActionId id : result.best().schedule) {
    const Action& a = *r.records()[id.index()].action;
    ASSERT_TRUE(a.precondition(replay) && a.execute(replay))
        << "seed " << GetParam();
  }
  EXPECT_EQ(replay.fingerprint(), result.best().final_state.fingerprint())
      << "seed " << GetParam();
}

TEST_P(WorkloadSweep, LineWorkloadSurfacesExactlyTheOverlaps) {
  workload::LineSpec spec;
  spec.seed = GetParam();
  const Generated g = workload::line_workload(spec);
  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;
  opts.failure_mode = FailureMode::kSkipAction;
  opts.limits.max_schedules = 20000;
  Reconciler r(g.initial, g.logs, opts);
  const auto result = r.run();
  ASSERT_TRUE(result.found_any()) << "seed " << GetParam();
  // Dropped actions are exactly dynamic same-line conflicts: every drop's
  // line was touched by the other session too.
  for (ActionId dropped : result.best().skipped) {
    const auto line = r.records()[dropped.index()].action->tag().param(0);
    const LogId log = r.records()[dropped.index()].log;
    bool other_session_touched = false;
    for (const auto& rec : r.records()) {
      other_session_touched =
          other_session_touched ||
          (rec.log != log && rec.action->tag().param(0) == line);
    }
    EXPECT_TRUE(other_session_touched)
        << "seed " << GetParam() << ": drop without overlap";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkloadSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace icecube
