// Determinism of the parallel engine (--threads / ReconcilerOptions::threads).
//
// The contract (DESIGN.md §8): for every thread count, reconciliation
// returns bit-for-bit the same outcomes — same schedules, same skipped and
// cut sets, same costs, same final states, same non-timing statistics — as
// the sequential engine. These tests run identical problems at threads ∈
// {1, 2, 8} and compare everything except wall-clock fields.
//
// The multi-cutset scenarios use a scripted order table that manufactures C
// independent two-action dependence cycles (2^C proper cutsets), because
// cutset-level parallelism — and the budget carving in the merge — only
// engages with more than one cutset.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/reconciler.hpp"
#include "jigsaw/experiment.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using testing::ScriptedObject;
using testing::make_log;

/// Always-succeeding action with a fully parameterised tag (NopAction only
/// carries an op name; the lockstep order table needs params).
class TaggedNop final : public SimpleAction {
 public:
  TaggedNop(Tag tag, ObjectId target)
      : SimpleAction(std::move(tag), {target}) {}
  [[nodiscard]] bool precondition(const Universe&) const override {
    return true;
  }
  bool execute(Universe&) const override { return true; }
};

std::vector<std::size_t> indices(const std::vector<ActionId>& ids) {
  std::vector<std::size_t> out;
  out.reserve(ids.size());
  for (ActionId id : ids) out.push_back(id.index());
  return out;
}

/// Full structural comparison of two reconcile results; `label` names the
/// thread count under test in failure messages.
void expect_identical(const ReconcileResult& want, const ReconcileResult& got,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(want.outcomes.size(), got.outcomes.size());
  for (std::size_t i = 0; i < want.outcomes.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    const Outcome& a = want.outcomes[i];
    const Outcome& b = got.outcomes[i];
    EXPECT_EQ(indices(a.schedule), indices(b.schedule));
    EXPECT_EQ(indices(a.skipped), indices(b.skipped));
    EXPECT_EQ(indices(a.cutset), indices(b.cutset));
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.final_state.fingerprint(), b.final_state.fingerprint());
  }

  ASSERT_EQ(want.cutsets.size(), got.cutsets.size());
  for (std::size_t i = 0; i < want.cutsets.size(); ++i) {
    EXPECT_EQ(indices(want.cutsets[i].actions), indices(got.cutsets[i].actions))
        << "cutset " << i;
  }
  EXPECT_EQ(want.degraded, got.degraded);
  EXPECT_EQ(indices(want.degraded_dropped), indices(got.degraded_dropped));

  // Every statistic except the wall-clock ones must match exactly.
  const SearchStats& s = want.stats;
  const SearchStats& t = got.stats;
  EXPECT_EQ(s.schedules_completed, t.schedules_completed);
  EXPECT_EQ(s.dead_ends, t.dead_ends);
  EXPECT_EQ(s.sim_steps, t.sim_steps);
  EXPECT_EQ(s.precondition_failures, t.precondition_failures);
  EXPECT_EQ(s.execution_failures, t.execution_failures);
  EXPECT_EQ(s.memoized_failures, t.memoized_failures);
  EXPECT_EQ(s.prefix_prunes, t.prefix_prunes);
  EXPECT_EQ(s.state_clones, t.state_clones);
  EXPECT_EQ(s.hit_limit, t.hit_limit);
  EXPECT_EQ(s.cutsets_truncated, t.cutsets_truncated);
  EXPECT_EQ(s.cutset_count, t.cutset_count);
  EXPECT_EQ(s.constraint_pairs_evaluated, t.constraint_pairs_evaluated);
  EXPECT_EQ(s.constraint_order_calls, t.constraint_order_calls);
  EXPECT_EQ(s.schedules_to_best, t.schedules_to_best);
}

/// Runs the same problem at threads 1, 2 and 8 and checks the results are
/// indistinguishable. `policy` (null = neutral) is shared by all three runs,
/// so it must be stateless.
void expect_thread_invariant(const Universe& initial,
                             const std::vector<Log>& logs,
                             ReconcilerOptions options,
                             const std::string& label,
                             Policy* policy = nullptr) {
  options.threads = 1;
  Reconciler sequential(initial, logs, options, policy);
  const ReconcileResult reference = sequential.run();
  for (const std::size_t threads : {2u, 8u}) {
    options.threads = threads;
    Reconciler parallel(initial, logs, options, policy);
    expect_identical(reference, parallel.run(),
                     label + " threads=" + std::to_string(threads));
  }
}

/// Order table that manufactures `cycles` independent 2-cycles out of
/// cyc(i, side) pairs, keeps each log's free(log, pos) actions in order
/// (reversal unsafe, cross-log maybe), and pins all cycle survivors after
/// the frees in ascending cycle order. Same table as bench_parallel.
ScriptedObject::OrderFn lockstep_table() {
  return [](const Action& a, const Action& b, LogRelation rel) {
    const Tag& ta = a.tag();
    const Tag& tb = b.tag();
    const bool a_cyc = ta.op == "cyc";
    const bool b_cyc = tb.op == "cyc";
    if (a_cyc && b_cyc) {
      if (ta.param(0) == tb.param(0)) return Constraint::kUnsafe;
      return ta.param(0) < tb.param(0) ? Constraint::kSafe
                                       : Constraint::kUnsafe;
    }
    if (a_cyc != b_cyc) {
      return b_cyc ? Constraint::kSafe : Constraint::kUnsafe;
    }
    if (rel == LogRelation::kSameLog) return Constraint::kUnsafe;
    return Constraint::kMaybe;
  };
}

struct Lockstep {
  Universe initial;
  std::vector<Log> logs;
};

Lockstep make_lockstep(int cycles, int frees_per_log) {
  Lockstep w;
  const ObjectId obj =
      w.initial.add(std::make_unique<ScriptedObject>(lockstep_table()));
  std::vector<ActionPtr> a, b;
  for (int f = 0; f < frees_per_log; ++f) {
    a.push_back(std::make_shared<TaggedNop>(Tag("free", {0, f}), obj));
    b.push_back(std::make_shared<TaggedNop>(Tag("free", {1, f}), obj));
  }
  for (int c = 0; c < cycles; ++c) {
    a.push_back(std::make_shared<TaggedNop>(Tag("cyc", {c, 0}), obj));
    b.push_back(std::make_shared<TaggedNop>(Tag("cyc", {c, 1}), obj));
  }
  w.logs.push_back(make_log("site-a", std::move(a)));
  w.logs.push_back(make_log("site-b", std::move(b)));
  return w;
}

TEST(ParallelDeterminism, MultiCutsetUnlimitedBudget) {
  const Lockstep w = make_lockstep(/*cycles=*/4, /*frees_per_log=*/4);
  ReconcilerOptions options;
  options.heuristic = Heuristic::kAll;
  options.limits.max_schedules = 10'000'000;  // never binding
  expect_thread_invariant(w.initial, w.logs, options, "lockstep-unlimited");
}

// Tight schedule budgets make workers overshoot their (unknowable up front)
// share of the global cap, forcing the merge to carve per-cutset budgets
// and re-run — the code path where determinism is hardest.
TEST(ParallelDeterminism, MultiCutsetTightScheduleBudget) {
  const Lockstep w = make_lockstep(/*cycles=*/4, /*frees_per_log=*/3);
  for (const std::uint64_t cap : {1, 7, 19, 20, 21, 150, 400}) {
    ReconcilerOptions options;
    options.heuristic = Heuristic::kAll;
    options.limits.max_schedules = cap;
    expect_thread_invariant(w.initial, w.logs, options,
                            "cap=" + std::to_string(cap));
  }
}

TEST(ParallelDeterminism, MultiCutsetTightStepBudget) {
  const Lockstep w = make_lockstep(/*cycles=*/4, /*frees_per_log=*/3);
  for (const std::uint64_t steps : {1, 50, 137, 1000}) {
    ReconcilerOptions options;
    options.heuristic = Heuristic::kAll;
    options.limits.max_schedules = 1'000'000;
    options.limits.max_steps = steps;
    expect_thread_invariant(w.initial, w.logs, options,
                            "steps=" + std::to_string(steps));
  }
}

// A policy stop at the first complete schedule halts the whole search
// mid-sequence: later cutsets must contribute nothing even if their workers
// already ran.
TEST(ParallelDeterminism, MultiCutsetStopAtFirstComplete) {
  const Lockstep w = make_lockstep(/*cycles=*/3, /*frees_per_log=*/4);
  ReconcilerOptions options;
  options.heuristic = Heuristic::kAll;
  testing::StopAtFirstComplete first;
  expect_thread_invariant(w.initial, w.logs, options, "first-complete",
                          &first);
}

TEST(ParallelDeterminism, MultiCutsetSmallKeepK) {
  const Lockstep w = make_lockstep(/*cycles=*/4, /*frees_per_log=*/3);
  ReconcilerOptions options;
  options.heuristic = Heuristic::kAll;
  options.keep_outcomes = 2;  // keep-K merge must reproduce sequential ties
  expect_thread_invariant(w.initial, w.logs, options, "keep-2");
}

TEST(ParallelDeterminism, JigsawExperimentMatchesSequential) {
  using jigsaw::Problem;
  using K = jigsaw::PlayerSpec::Kind;
  const Problem problem =
      jigsaw::make_problem(4, 4, jigsaw::Board::OrderCase::kKeepLogOrder,
                           {{K::kU1, 8}, {K::kU2, 8}});
  ReconcilerOptions options;
  options.heuristic = Heuristic::kSafe;
  options.limits.max_schedules = 20000;
  expect_thread_invariant(problem.initial, problem.logs, options, "jigsaw");
}

TEST(ParallelDeterminism, CalendarWorkload) {
  const auto generated = workload::calendar_workload(
      {.users = 4, .actions_per_user = 4, .seed = 11});
  ReconcilerOptions options;
  options.heuristic = Heuristic::kAll;
  options.failure_mode = FailureMode::kSkipAction;
  options.limits.max_schedules = 5000;
  expect_thread_invariant(generated.initial, generated.logs, options,
                          "calendar");
}

TEST(ParallelDeterminism, FileSystemWorkload) {
  const auto generated = workload::fs_workload(
      {.replicas = 3, .actions_per_replica = 5, .seed = 7});
  ReconcilerOptions options;
  options.heuristic = Heuristic::kAll;
  options.limits.max_schedules = 5000;
  expect_thread_invariant(generated.initial, generated.logs, options, "fs");
}

// Randomized sweep: seeds × substrates × option shapes. Everything must be
// thread-count invariant, including runs that hit their limits and degrade.
TEST(ParallelDeterminism, SeededWorkloadSweep) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const bool odd = (seed % 2) != 0;
    ReconcilerOptions options;
    options.heuristic = odd ? Heuristic::kAll : Heuristic::kSafe;
    options.failure_mode =
        odd ? FailureMode::kSkipAction : FailureMode::kAbortBranch;
    options.limits.max_schedules = odd ? 300 : 4000;
    options.memoize_failures = odd;
    options.prune_equivalent = !odd;

    const auto counter = workload::counter_workload(
        {.replicas = 3, .actions_per_replica = 4, .seed = seed});
    expect_thread_invariant(counter.initial, counter.logs, options,
                            "counter seed=" + std::to_string(seed));

    const auto fs = workload::fs_workload(
        {.replicas = 2, .actions_per_replica = 5, .seed = seed});
    expect_thread_invariant(fs.initial, fs.logs, options,
                            "fs seed=" + std::to_string(seed));

    const auto cal = workload::calendar_workload(
        {.users = 3, .actions_per_user = 3, .seed = seed});
    expect_thread_invariant(cal.initial, cal.logs, options,
                            "calendar seed=" + std::to_string(seed));
  }
}

// threads=0 resolves to the hardware lane count — whatever that is on the
// host, results must still match the sequential engine.
TEST(ParallelDeterminism, HardwareThreadCountAlsoMatches) {
  const Lockstep w = make_lockstep(/*cycles=*/3, /*frees_per_log=*/3);
  ReconcilerOptions options;
  options.heuristic = Heuristic::kAll;
  options.threads = 1;
  Reconciler sequential(w.initial, w.logs, options);
  const ReconcileResult reference = sequential.run();
  options.threads = 0;
  Reconciler parallel(w.initial, w.logs, options);
  expect_identical(reference, parallel.run(), "threads=hardware");
}

}  // namespace
}  // namespace icecube
