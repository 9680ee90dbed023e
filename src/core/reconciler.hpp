// Top-level reconciliation (§2.1): scheduling → simulation → selection.
//
// This is the public entry point of the library. Feed it the common initial
// state and one log per replica; it builds the static constraint relation
// (one pair pass, DESIGN.md §8), analyses dependence cycles, searches
// schedules per proper cutset under the configured heuristic, and returns
// the ranked outcomes.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "core/relations.hpp"
#include "core/universe.hpp"
#include "solver/graph.hpp"
#include "util/thread_pool.hpp"

namespace icecube {

/// Everything a caller learns from one reconciliation run.
struct ReconcileResult {
  /// Retained outcomes, best first (per the policy cost function). Empty
  /// only if the action set is empty... in which case it holds the trivial
  /// empty schedule, so in practice never empty unless limits were 0.
  std::vector<Outcome> outcomes;
  SearchStats stats;
  /// The proper cutsets that were searched (usually just the empty one).
  std::vector<Cutset> cutsets;
  /// True iff the search exhausted its limits with no complete schedule and
  /// the greedy fallback ran (ReconcilerOptions::degrade_on_exhaustion).
  /// The fallback's own outcome carries `Outcome::degraded`.
  bool degraded = false;
  /// Actions the degraded fallback could not place anywhere (empty unless
  /// `degraded`). These are what graceful degradation dropped.
  std::vector<ActionId> degraded_dropped;

  [[nodiscard]] const Outcome& best() const { return outcomes.front(); }
  [[nodiscard]] bool found_any() const { return !outcomes.empty(); }
};

/// The static stage of one reconciliation (§2.3, §3.1): the flattened
/// records and their conflict graph, and on the dense path the constraint
/// matrix and relations too. Only the built results are kept, not the
/// IncrementalConstraintGraph: it points at the initial universe, which a
/// move of the owning reconciler would leave behind.
struct ConstraintStage {
  std::vector<ActionRecord> records;
  /// Raw D edges and overlap lists; the §6 causal keys read the latter.
  SolverGraph graph;
  /// Conflict components, priority-sorted (sparse path only).
  std::vector<std::vector<ActionId>> components;
  /// The matrix and the relations derived from it (dense path only).
  ConstraintMatrix matrix;
  Relations relations;
  ConstraintBuildStats build_stats;
};

/// One-problem reconciler. Construct with the initial universe and the
/// divergent logs, optionally attach a policy, then `run()`.
///
/// ```
/// Reconciler r(initial, {log_a, log_b}, options);
/// ReconcileResult result = r.run();
/// const Universe& merged = result.best().final_state;
/// ```
class Reconciler {
 public:
  /// `policy` may be null (neutral defaults are used). The policy must
  /// outlive the reconciler.
  Reconciler(Universe initial, std::vector<Log> logs,
             ReconcilerOptions options = {}, Policy* policy = nullptr);

  /// Runs all three stages and returns the ranked outcomes. Repeatable;
  /// each call searches from scratch.
  [[nodiscard]] ReconcileResult run();

  /// Introspection for tests, benches and demos — valid after construction.
  /// `solver_graph()` is populated on every path. `constraints()` and
  /// `relations()` are populated on the dense path only (backend dfs, or
  /// auto within `dense_graph_limit`); the greedy and local-search backends
  /// leave them empty.
  [[nodiscard]] const std::vector<ActionRecord>& records() const {
    return stage_.records;
  }
  [[nodiscard]] const ConstraintMatrix& constraints() const {
    return stage_.matrix;
  }
  [[nodiscard]] const Relations& relations() const { return stage_.relations; }
  [[nodiscard]] const SolverGraph& solver_graph() const {
    return stage_.graph;
  }
  /// The backend the options resolved to (auto on an oversized problem
  /// degenerates to local search).
  [[nodiscard]] SolverKind resolved_backend() const {
    return resolved_backend_;
  }
  [[nodiscard]] const Universe& initial_state() const { return initial_; }
  /// Work counters of the constraint construction.
  [[nodiscard]] const ConstraintBuildStats& build_stats() const {
    return stage_.build_stats;
  }

  /// Formats a schedule as "log:pos op(...)" lines for demos.
  [[nodiscard]] std::string describe_schedule(
      const std::vector<ActionId>& schedule) const;

 private:
  Universe initial_;
  std::vector<Log> logs_;
  ReconcilerOptions options_;
  Policy* policy_;
  std::unique_ptr<Policy> default_policy_;

  ConstraintStage stage_;
  SolverKind resolved_backend_ = SolverKind::kDfs;
  bool sparse_ = false;
  /// Worker pool behind ReconcilerOptions::threads — created once (threads
  /// != 1), shared by every run()'s cutset search. Null means fully
  /// sequential.
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace icecube
