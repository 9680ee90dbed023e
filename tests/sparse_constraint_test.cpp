// The one pair pass vs the dense all-pairs oracle.
//
// `IncrementalConstraintGraph::build` walks a target→actions inverted index
// and evaluates only pairs that share a target (everything else is safe by
// §2.3 rule 1), computing each unordered pair's shared-target set once and
// skipping the recorded direction of same-log pairs (rule 2). The matrix it
// fills is checked against `build_constraints_dense` — identical cells, the
// same `order()` calls, less work — over the library workload generators,
// randomized scripted universes and a target listed twice.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/log.hpp"
#include "core/universe.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using testing::ScriptedObject;
using testing::make_log;

void expect_same_matrix(const ConstraintMatrix& want,
                        const ConstraintMatrix& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    for (std::size_t j = 0; j < want.size(); ++j) {
      EXPECT_EQ(want.at(ActionId(i), ActionId(j)), got.at(ActionId(i), ActionId(j)))
          << "cell (" << i << ", " << j << ")";
    }
  }
}

/// The matrix the graph fills, with the graph's work counters.
ConstraintMatrix graph_matrix(const Universe& universe,
                              const std::vector<ActionRecord>& records,
                              ConstraintBuildStats* stats) {
  ConstraintMatrix matrix;
  *stats = IncrementalConstraintGraph::build(universe, records, &matrix)
               .build_stats();
  return matrix;
}

/// Builds both ways and checks equality and the work-counter relations.
void check_equivalence(const Universe& universe,
                       const std::vector<Log>& logs) {
  const std::vector<ActionRecord> records = flatten(logs);
  const std::size_t n = records.size();

  ConstraintBuildStats dense_stats;
  const ConstraintMatrix dense =
      build_constraints_dense(universe, records, &dense_stats);

  ConstraintBuildStats graph_stats;
  const ConstraintMatrix from_graph =
      graph_matrix(universe, records, &graph_stats);
  expect_same_matrix(dense, from_graph);

  // The dense oracle does all n(n-1) ordered pairs and builds the shared
  // set for each; the graph touches only sharing pairs, once, and makes
  // exactly the oracle's order() calls.
  EXPECT_EQ(dense_stats.pairs_evaluated, n * (n - 1));
  EXPECT_EQ(dense_stats.target_set_builds, n * (n - 1));
  EXPECT_LE(graph_stats.pairs_evaluated, dense_stats.pairs_evaluated);
  if (n >= 2) {
    EXPECT_LT(graph_stats.target_set_builds, dense_stats.target_set_builds);
  }
  EXPECT_EQ(graph_stats.order_calls, dense_stats.order_calls);
}

TEST(SparseConstraints, EmptyAndSingleton) {
  Universe u;
  (void)u.add(std::make_unique<ScriptedObject>());
  check_equivalence(u, {});

  std::vector<ActionPtr> one;
  one.push_back(std::make_shared<testing::NopAction>(
      "solo", std::vector<ObjectId>{ObjectId(0)}));
  std::vector<Log> logs;
  logs.push_back(make_log("a", std::move(one)));
  check_equivalence(u, logs);
}

TEST(SparseConstraints, CounterWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = workload::counter_workload(
        {.replicas = 3, .actions_per_replica = 6, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

TEST(SparseConstraints, FileSystemWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = workload::fs_workload(
        {.replicas = 3, .actions_per_replica = 6, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

TEST(SparseConstraints, CalendarWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = workload::calendar_workload(
        {.users = 4, .actions_per_user = 4, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

TEST(SparseConstraints, TextWorkloads) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto g = workload::text_workload(
        {.replicas = 2, .actions_per_replica = 5, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

/// Objects whose verdicts differ, so how many order() calls a direction
/// makes depends on the order it scans the shared targets in; plus actions
/// that list a target twice, which must not pair with themselves.
TEST(SparseConstraints, RepeatedAndReorderedTargets) {
  Universe u;
  const ObjectId x = u.add(std::make_unique<ScriptedObject>(
      [](const Action&, const Action&, LogRelation) {
        return Constraint::kUnsafe;
      }));
  const ObjectId y = u.add(std::make_unique<ScriptedObject>(
      [](const Action&, const Action&, LogRelation) {
        return Constraint::kSafe;
      }));
  const auto nop = [](std::string op, std::vector<ObjectId> targets) {
    return std::make_shared<testing::NopAction>(std::move(op),
                                                std::move(targets));
  };
  std::vector<Log> logs;
  logs.push_back(make_log(
      "a", {nop("p", {y, x}), nop("r", {x, x, y}), nop("t", {y, y})}));
  logs.push_back(make_log("b", {nop("q", {x, y}), nop("s", {x, y, x})}));
  check_equivalence(u, logs);

  const IncrementalConstraintGraph graph =
      IncrementalConstraintGraph::build(u, flatten(logs));
  for (std::size_t v = 0; v < graph.size(); ++v) {
    EXPECT_FALSE(graph.graph().overlaps(ActionId(v), ActionId(v)))
        << "action " << v << " pairs with itself";
  }
}

/// Randomized universes with many objects, scripted pseudo-random order
/// tables, and actions targeting random object subsets — so the matrix has
/// a real mix of disjoint, single-shared and multi-shared pairs.
TEST(SparseConstraints, RandomScriptedUniverses) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);

    // Deterministic pseudo-random order table keyed on the two tags.
    const ScriptedObject::OrderFn table = [](const Action& a, const Action& b,
                                             LogRelation rel) {
      const std::uint64_t h = std::hash<std::string>{}(a.tag().op) * 3 +
                              std::hash<std::string>{}(b.tag().op) +
                              (rel == LogRelation::kSameLog ? 17 : 0);
      switch (h % 3) {
        case 0:
          return Constraint::kSafe;
        case 1:
          return Constraint::kMaybe;
        default:
          return Constraint::kUnsafe;
      }
    };

    Universe u;
    const std::size_t n_objects = 2 + rng() % 7;
    std::vector<ObjectId> objects;
    for (std::size_t i = 0; i < n_objects; ++i) {
      objects.push_back(u.add(std::make_unique<ScriptedObject>(table)));
    }

    std::vector<Log> logs;
    const std::size_t n_logs = 2 + rng() % 3;
    std::int64_t serial = 0;
    for (std::size_t l = 0; l < n_logs; ++l) {
      std::vector<ActionPtr> actions;
      const std::size_t n_actions = 2 + rng() % 8;
      for (std::size_t k = 0; k < n_actions; ++k) {
        std::vector<ObjectId> targets{objects[rng() % n_objects]};
        if (rng() % 3 == 0) {
          const ObjectId extra = objects[rng() % n_objects];
          if (extra.value() != targets[0].value()) targets.push_back(extra);
        }
        actions.push_back(std::make_shared<testing::NopAction>(
            "op" + std::to_string(++serial), std::move(targets)));
      }
      logs.push_back(make_log("log" + std::to_string(l), std::move(actions)));
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    check_equivalence(u, logs);

    // With several objects some pairs are disjoint, so the graph
    // must also evaluate strictly fewer ordered pairs, not just tie.
    const std::vector<ActionRecord> records = flatten(logs);
    const auto disjoint = [](const ActionRecord& x, const ActionRecord& y) {
      for (ObjectId tx : x.action->targets()) {
        for (ObjectId ty : y.action->targets()) {
          if (tx == ty) return false;
        }
      }
      return true;
    };
    bool any_disjoint = false;
    for (std::size_t i = 0; i < records.size() && !any_disjoint; ++i) {
      for (std::size_t j = 0; j < records.size(); ++j) {
        if (i != j && disjoint(records[i], records[j])) {
          any_disjoint = true;
          break;
        }
      }
    }
    if (any_disjoint) {
      ConstraintBuildStats dense_stats, graph_stats;
      (void)build_constraints_dense(u, records, &dense_stats);
      (void)graph_matrix(u, records, &graph_stats);
      EXPECT_LT(graph_stats.pairs_evaluated, dense_stats.pairs_evaluated);
    }
  }
}

}  // namespace
}  // namespace icecube
