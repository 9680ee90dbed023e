// Solver backends (DESIGN.md §13): determinism of the seeded local search,
// quality ordering (ls >= greedy, == DFS optimum on small problems), and
// the suffix-resimulation oracle — the incremental cost bookkeeping must
// equal a full fresh replay after every single move.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/reconciler.hpp"
#include "objects/counter.hpp"
#include "solver/graph.hpp"
#include "solver/local_search.hpp"
#include "util/timer.hpp"
#include "workload/fages.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using workload::FagesSpec;
using workload::Generated;

ReconcilerOptions solver_options(SolverKind kind, std::uint64_t moves = 4000) {
  ReconcilerOptions opts;
  opts.backend = kind;
  opts.failure_mode = FailureMode::kSkipAction;
  opts.heuristic = Heuristic::kAll;
  opts.local_search.max_moves = moves;
  opts.local_search.stall_moves = moves;
  return opts;
}

Generated small_fages(std::uint64_t seed) {
  FagesSpec spec;
  spec.replicas = 3;
  spec.tasks_per_replica = 12;
  spec.dependency_density = 1.2;
  spec.conflict_ratio = 0.4;
  spec.shared_resources = 3;
  spec.seed = seed;
  return workload::fages_workload(spec);
}

/// Schedule, skipped and cutset must partition the actions; the schedule
/// must respect every raw D edge and replay failure-free from `initial`
/// (kSkipAction puts failures in `skipped`, so every action in `schedule`
/// executed).
void expect_valid(const ReconcileResult& result,
                  const std::vector<ActionRecord>& records,
                  const SolverGraph& graph, const Universe& initial) {
  const Outcome& best = result.best();
  EXPECT_TRUE(best.complete);
  std::vector<int> seen(records.size(), 0);
  for (const auto* part : {&best.schedule, &best.skipped, &best.cutset}) {
    for (ActionId id : *part) ++seen[id.index()];
  }
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "action " << i;
  }
  std::vector<std::size_t> pos(records.size(), SIZE_MAX);
  for (std::size_t i = 0; i < best.schedule.size(); ++i) {
    pos[best.schedule[i].index()] = i;
  }
  for (std::size_t b = 0; b < graph.n; ++b) {
    if (pos[b] == SIZE_MAX) continue;
    for (ActionId a : graph.preds[b]) {
      if (pos[a.index()] == SIZE_MAX) continue;
      EXPECT_LT(pos[a.index()], pos[b])
          << "D edge " << a.value() << " -> " << b << " violated";
    }
  }
  Universe state = initial.snapshot();
  for (ActionId id : best.schedule) {
    const Action& action = *records[id.index()].action;
    EXPECT_TRUE(action.precondition(state) && action.execute(state))
        << "scheduled action " << id.value() << " fails on replay";
  }
}

TEST(SolverBackends, LocalSearchIsDeterministicAcrossRunsAndThreads) {
  const Generated g = small_fages(21);
  std::vector<ActionId> reference;
  double reference_cost = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (int rep = 0; rep < 2; ++rep) {
      ReconcilerOptions opts = solver_options(SolverKind::kLocalSearch);
      opts.threads = threads;
      Reconciler r(g.initial, g.logs, opts);
      const ReconcileResult result = r.run();
      ASSERT_TRUE(result.found_any());
      EXPECT_EQ(result.stats.backend, "ls");
      EXPECT_GT(result.stats.moves_proposed, 0u);
      if (reference.empty()) {
        reference = result.best().schedule;
        reference_cost = result.best().cost;
        EXPECT_FALSE(reference.empty());
      } else {
        EXPECT_EQ(result.best().schedule, reference)
            << "threads=" << threads << " rep=" << rep;
        EXPECT_DOUBLE_EQ(result.best().cost, reference_cost);
      }
    }
  }
}

TEST(SolverBackends, DifferentSeedsMayDifferButStayValid) {
  const Generated g = small_fages(22);
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    ReconcilerOptions opts = solver_options(SolverKind::kLocalSearch);
    opts.local_search.seed = seed;
    Reconciler r(g.initial, g.logs, opts);
    const ReconcileResult result = r.run();
    ASSERT_TRUE(result.found_any());
    expect_valid(result, r.records(), r.solver_graph(), g.initial);
  }
}

TEST(SolverBackends, GreedyIsValidAndLocalSearchNeverWorse) {
  for (const std::uint64_t seed : {5ULL, 6ULL, 7ULL, 8ULL}) {
    const Generated g = small_fages(seed);
    Reconciler greedy(g.initial, g.logs, solver_options(SolverKind::kGreedy));
    const ReconcileResult gres = greedy.run();
    ASSERT_TRUE(gres.found_any());
    EXPECT_EQ(gres.stats.backend, "greedy");
    EXPECT_EQ(gres.stats.moves_proposed, 0u);
    expect_valid(gres, greedy.records(), greedy.solver_graph(), g.initial);

    Reconciler ls(g.initial, g.logs,
                  solver_options(SolverKind::kLocalSearch));
    const ReconcileResult lres = ls.run();
    ASSERT_TRUE(lres.found_any());
    expect_valid(lres, ls.records(), ls.solver_graph(), g.initial);
    // ls starts from the greedy configuration, so it can never end worse.
    EXPECT_LE(lres.best().cost, gres.best().cost + 1e-9);
  }
}

TEST(SolverBackends, LocalSearchMatchesDfsOptimumOnSmallProblems) {
  // Small enough that the capped DFS is exhaustive — its best cost is the
  // true optimum under the shared objective (skip-on-failure, default
  // policy). ls must land exactly on it.
  for (const std::uint64_t seed : {31ULL, 32ULL, 33ULL}) {
    FagesSpec spec;
    spec.replicas = 2;
    spec.tasks_per_replica = 4;
    spec.dependency_density = 1.0;
    spec.conflict_ratio = 0.5;
    spec.shared_resources = 2;
    spec.seed = seed;
    const Generated g = workload::fages_workload(spec);

    Reconciler dfs(g.initial, g.logs, solver_options(SolverKind::kDfs));
    const ReconcileResult dres = dfs.run();
    ASSERT_TRUE(dres.found_any());
    ASSERT_FALSE(dres.stats.hit_limit);

    Reconciler ls(g.initial, g.logs,
                  solver_options(SolverKind::kLocalSearch, 8000));
    const ReconcileResult lres = ls.run();
    ASSERT_TRUE(lres.found_any());
    EXPECT_NEAR(lres.best().cost, dres.best().cost, 1e-9)
        << "seed=" << seed;
  }
}

TEST(SolverBackends, CounterWorkloadQualityOrdering) {
  workload::CounterSpec spec;
  spec.replicas = 2;
  spec.actions_per_replica = 4;
  spec.initial_balance = 20;
  spec.max_amount = 15;
  spec.increment_probability = 0.3;
  spec.seed = 9;
  const Generated g = workload::counter_workload(spec);

  ReconcilerOptions dfs_opts = solver_options(SolverKind::kDfs);
  dfs_opts.limits.max_schedules = 2'000'000;  // skip-mode branching is wide
  Reconciler dfs(g.initial, g.logs, dfs_opts);
  const ReconcileResult dres = dfs.run();
  ASSERT_FALSE(dres.stats.hit_limit);
  Reconciler greedy(g.initial, g.logs, solver_options(SolverKind::kGreedy));
  const ReconcileResult gres = greedy.run();
  Reconciler ls(g.initial, g.logs,
                solver_options(SolverKind::kLocalSearch, 8000));
  const ReconcileResult lres = ls.run();

  EXPECT_LE(lres.best().cost, gres.best().cost + 1e-9);
  EXPECT_NEAR(lres.best().cost, dres.best().cost, 1e-9);
}

TEST(SolverBackends, AutoResolvesByProblemSize) {
  const Generated g = small_fages(41);
  {
    ReconcilerOptions opts = solver_options(SolverKind::kAuto);
    Reconciler r(g.initial, g.logs, opts);
    EXPECT_EQ(r.resolved_backend(), SolverKind::kAuto);
    const ReconcileResult result = r.run();
    EXPECT_EQ(result.stats.backend, "auto");
    ASSERT_TRUE(result.found_any());
  }
  {
    ReconcilerOptions opts = solver_options(SolverKind::kAuto);
    opts.dense_graph_limit = 8;  // force the oversized branch
    Reconciler r(g.initial, g.logs, opts);
    EXPECT_EQ(r.resolved_backend(), SolverKind::kLocalSearch);
    const ReconcileResult result = r.run();
    EXPECT_EQ(result.stats.backend, "ls");
    ASSERT_TRUE(result.found_any());
  }
}

TEST(SolverBackends, AutoMatchesDfsOnSmallProblems) {
  // Within dense_graph_limit with one cutset-free sub-problem small enough
  // for the oracle (<= kAutoDfsMaxActions), auto is exactly DFS.
  FagesSpec spec;
  spec.replicas = 2;
  spec.tasks_per_replica = 10;
  spec.conflict_ratio = 0.4;
  spec.shared_resources = 2;
  spec.seed = 42;
  const Generated g = workload::fages_workload(spec);
  Reconciler dfs(g.initial, g.logs, solver_options(SolverKind::kDfs));
  const ReconcileResult dres = dfs.run();
  Reconciler auto_r(g.initial, g.logs, solver_options(SolverKind::kAuto));
  const ReconcileResult ares = auto_r.run();
  ASSERT_TRUE(dres.found_any());
  ASSERT_TRUE(ares.found_any());
  EXPECT_EQ(ares.best().schedule, dres.best().schedule);
  EXPECT_DOUBLE_EQ(ares.best().cost, dres.best().cost);
}

TEST(SolverBackends, AutoEqualsLsOnOneLargeCutset) {
  // An acyclic 60-action problem has one empty proper cutset, too large for
  // the DFS oracle: auto must solve it exactly as ls does.
  FagesSpec spec;
  spec.replicas = 3;
  spec.tasks_per_replica = 20;
  spec.dependency_density = 1.2;
  spec.conflict_ratio = 0.4;
  spec.shared_resources = 6;
  spec.seed = 2;
  const Generated g = workload::fages_workload(spec);
  Reconciler auto_r(g.initial, g.logs, solver_options(SolverKind::kAuto));
  const ReconcileResult ares = auto_r.run();
  Reconciler ls(g.initial, g.logs, solver_options(SolverKind::kLocalSearch));
  const ReconcileResult lres = ls.run();
  ASSERT_TRUE(ares.found_any());
  ASSERT_TRUE(lres.found_any());
  ASSERT_EQ(ares.cutsets.size(), 1u);
  ASSERT_TRUE(ares.cutsets.front().empty());
  ASSERT_GT(auto_r.records().size(), kAutoDfsMaxActions);
  EXPECT_EQ(ares.stats.backend, "auto");
  EXPECT_GT(ares.stats.moves_proposed, 0u);
  EXPECT_EQ(ares.best().schedule, lres.best().schedule);
  EXPECT_EQ(ares.best().skipped, lres.best().skipped);
  EXPECT_DOUBLE_EQ(ares.best().cost, lres.best().cost);
}

TEST(SolverBackends, AutoLargeCutsetsAreValid) {
  // 42 file-system actions with four one-action proper cutsets: every
  // cutset leaves more than kAutoDfsMaxActions actions to local search.
  workload::FsSpec spec;
  spec.replicas = 3;
  spec.actions_per_replica = 14;
  spec.seed = 1;
  const Generated g = workload::fs_workload(spec);
  Reconciler r(g.initial, g.logs, solver_options(SolverKind::kAuto));
  const ReconcileResult result = r.run();
  ASSERT_TRUE(result.found_any());
  ASSERT_EQ(r.records().size(), 42u);
  ASSERT_EQ(result.cutsets.size(), 4u);
  for (const Cutset& cutset : result.cutsets) {
    EXPECT_EQ(cutset.size(), 1u);
  }
  EXPECT_EQ(result.outcomes.front().cutset.size(), 1u);
  const SolverGraph graph =
      IncrementalConstraintGraph::build(g.initial, r.records()).take_graph();
  expect_valid(result, r.records(), graph, g.initial);
}

TEST(SolverOracle, IncrementalCostEqualsFullReplayOn500Moves) {
  // The heart of the incremental machinery: after every proposed move —
  // accepted or rejected, across all four move kinds — the maintained cost
  // must equal a from-scratch replay of the current configuration.
  const Generated g = small_fages(77);
  const std::vector<ActionRecord> records = flatten(g.logs);
  Universe initial = g.initial;
  initial.set_copy_mode(Universe::CopyMode::kCopyOnWrite);
  const SolverGraph graph =
      IncrementalConstraintGraph::build(initial, records).take_graph();

  LocalSearchOptions opts;
  opts.seed = 1234;
  opts.checkpoint_interval = 8;  // small interval: many boundary crossings
  opts.tabu_tenure = 4;
  LocalSearchEngine engine(records, graph, initial, opts);
  ASSERT_DOUBLE_EQ(engine.current_cost(), engine.full_replay_cost());
  for (int move = 0; move < 500; ++move) {
    if (!engine.step()) break;
    ASSERT_DOUBLE_EQ(engine.current_cost(), engine.full_replay_cost())
        << "divergence after move " << move;
  }
  EXPECT_GE(engine.proposals(), 500u);
  EXPECT_GT(engine.accepted(), 0u);
  EXPECT_LE(engine.best_cost(), engine.current_cost() + 1e-12);
}

TEST(SolverOracle, OracleHoldsOnContestedCounterWorkload) {
  // Execution failures (not just precondition failures) exercise the
  // taint-recovery path: a counter decrement can pass its precondition
  // against a stale view and then fail in execute.
  workload::CounterSpec spec;
  spec.replicas = 3;
  spec.actions_per_replica = 8;
  spec.initial_balance = 25;
  spec.max_amount = 20;
  spec.increment_probability = 0.35;
  spec.seed = 5;
  const Generated g = workload::counter_workload(spec);
  const std::vector<ActionRecord> records = flatten(g.logs);
  Universe initial = g.initial;
  initial.set_copy_mode(Universe::CopyMode::kCopyOnWrite);
  const SolverGraph graph =
      IncrementalConstraintGraph::build(initial, records).take_graph();

  LocalSearchOptions opts;
  opts.seed = 99;
  opts.checkpoint_interval = 4;
  LocalSearchEngine engine(records, graph, initial, opts);
  for (int move = 0; move < 300; ++move) {
    if (!engine.step()) break;
    ASSERT_DOUBLE_EQ(engine.current_cost(), engine.full_replay_cost())
        << "divergence after move " << move;
  }
}

TEST(SolverGraphTest, EdgesMatchDenseRelationsOnFages) {
  // The greedy path's graph must agree with the dense matrix + relations
  // pipeline on which raw D edges exist.
  const Generated g = small_fages(55);
  Reconciler dense(g.initial, g.logs, solver_options(SolverKind::kDfs));
  Reconciler sparse(g.initial, g.logs, solver_options(SolverKind::kGreedy));
  const SolverGraph& graph = sparse.solver_graph();
  const Relations& relations = dense.relations();
  for (std::size_t a = 0; a < graph.n; ++a) {
    std::set<std::uint32_t> sparse_succs;
    for (ActionId b : graph.succs[a]) sparse_succs.insert(b.value());
    std::set<std::uint32_t> dense_succs;
    relations.raw_successors(ActionId(static_cast<std::uint32_t>(a)))
        .for_each([&](std::size_t b) {
          dense_succs.insert(static_cast<std::uint32_t>(b));
        });
    EXPECT_EQ(sparse_succs, dense_succs) << "action " << a;
  }
}

TEST(SolverGraphTest, DensePathBuildsTheSameGraph) {
  // Every backend reads the graph of the one pair pass: the DFS path fills
  // the matrix from it too, but the graph itself must not depend on that.
  const std::vector<std::pair<const char*, Generated>> problems = {
      {"calendar", workload::calendar_workload(
                       {.users = 4, .actions_per_user = 4, .seed = 3})},
      {"counter", workload::counter_workload(
                      {.replicas = 3, .actions_per_replica = 6, .seed = 3})},
      {"fs", workload::fs_workload(
                 {.replicas = 3, .actions_per_replica = 6, .seed = 3})},
      {"text", workload::text_workload(
                   {.replicas = 2, .actions_per_replica = 5, .seed = 3})},
      {"fages", small_fages(55)},
  };
  for (const auto& [name, g] : problems) {
    SCOPED_TRACE(name);
    const Reconciler dfs(g.initial, g.logs, solver_options(SolverKind::kDfs));
    const Reconciler greedy(g.initial, g.logs,
                            solver_options(SolverKind::kGreedy));
    const SolverGraph& a = dfs.solver_graph();
    const SolverGraph& b = greedy.solver_graph();
    ASSERT_EQ(a.n, dfs.records().size());
    ASSERT_EQ(a.n, b.n);
    EXPECT_EQ(a.preds, b.preds);
    EXPECT_EQ(a.succs, b.succs);
    EXPECT_EQ(a.overlap_lists, b.overlap_lists);
    EXPECT_EQ(dfs.build_stats().pairs_evaluated,
              greedy.build_stats().pairs_evaluated);
    EXPECT_EQ(dfs.build_stats().order_calls,
              greedy.build_stats().order_calls);
  }
}

/// A decrement whose target list names its counter twice: nothing requires
/// target lists to be duplicate-free.
class RepeatedTargetDecrement final : public SimpleAction {
 public:
  explicit RepeatedTargetDecrement(ObjectId counter)
      : SimpleAction(Tag("decrement", {1}), {counter, counter}),
        counter_(counter) {}
  [[nodiscard]] bool precondition(const Universe&) const override {
    return true;
  }
  bool execute(Universe& u) const override {
    return u.as<Counter>(counter_).apply(-1);
  }

 private:
  ObjectId counter_;
};

TEST(SolverGraphTest, RepeatedTargetNeverPairsAnActionWithItself) {
  Universe initial;
  const ObjectId c = initial.add(std::make_unique<Counter>(1));
  Log a("a");
  a.append(std::make_shared<RepeatedTargetDecrement>(c));
  a.append(std::make_shared<IncrementAction>(c, 2));
  Log b("b");
  b.append(std::make_shared<RepeatedTargetDecrement>(c));
  const std::vector<Log> logs{a, b};
  Reconciler dense(initial, logs, solver_options(SolverKind::kDfs));
  Reconciler sparse(initial, logs, solver_options(SolverKind::kGreedy));
  const SolverGraph& graph = sparse.solver_graph();
  const std::vector<ActionRecord>& records = dense.records();
  for (std::size_t x = 0; x < graph.n; ++x) {
    std::vector<ActionId> dense_succs;
    dense.relations().raw_successors(ActionId(x)).for_each(
        [&](std::size_t y) { dense_succs.push_back(ActionId(y)); });
    // All-pairs oracle: every other action sharing a target with x.
    std::vector<ActionId> dense_overlap;
    const std::vector<ObjectId> tx = records[x].action->targets();
    for (std::size_t y = 0; y < records.size(); ++y) {
      const std::vector<ObjectId> ty = records[y].action->targets();
      const bool shares = std::any_of(tx.begin(), tx.end(), [&](ObjectId t) {
        return std::find(ty.begin(), ty.end(), t) != ty.end();
      });
      if (y != x && shares) dense_overlap.push_back(ActionId(y));
    }
    EXPECT_EQ(graph.succs[x], dense_succs) << "action " << x;
    EXPECT_EQ(graph.overlap_lists[x], dense_overlap) << "action " << x;
  }
}

TEST(FagesWorkloadTest, DeterministicAndReplaysInIsolation) {
  const FagesSpec spec;
  const Generated a = workload::fages_workload(spec);
  const Generated b = workload::fages_workload(spec);
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (std::size_t i = 0; i < a.logs.size(); ++i) {
    ASSERT_EQ(a.logs[i].size(), b.logs[i].size());
    for (std::size_t j = 0; j < a.logs[i].size(); ++j) {
      EXPECT_EQ(a.logs[i].at(j).tag(), b.logs[i].at(j).tag());
    }
  }
  // §2.1's log-correctness invariant: each log replays in full against the
  // common initial state.
  for (const Log& log : a.logs) {
    Universe state = a.initial.snapshot();
    for (std::size_t j = 0; j < log.size(); ++j) {
      ASSERT_TRUE(log.at(j).precondition(state)) << "log pos " << j;
      ASSERT_TRUE(log.at(j).execute(state)) << "log pos " << j;
    }
  }
}

TEST(FagesWorkloadTest, ConflictsForceSkipsAcrossReplicas) {
  // With capacity-1 claim cells contended by every replica, the merged
  // problem cannot execute everything — the losers must be skipped.
  FagesSpec spec;
  spec.replicas = 4;
  spec.tasks_per_replica = 10;
  spec.conflict_ratio = 0.8;
  spec.shared_resources = 2;
  spec.seed = 3;
  const Generated g = workload::fages_workload(spec);
  Reconciler r(g.initial, g.logs, solver_options(SolverKind::kLocalSearch));
  const ReconcileResult result = r.run();
  ASSERT_TRUE(result.found_any());
  EXPECT_TRUE(result.best().complete);
  EXPECT_FALSE(result.best().skipped.empty());
  EXPECT_FALSE(result.best().schedule.empty());
}

}  // namespace
}  // namespace icecube
