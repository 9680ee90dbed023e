// Simulation outcomes and search statistics.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/universe.hpp"
#include "util/ids.hpp"

namespace icecube {

/// The result of simulating one schedule (complete or dead-ended).
struct Outcome {
  /// Actions successfully executed, in execution order.
  std::vector<ActionId> schedule;
  /// Actions dropped by FailureMode::kSkipAction in this branch.
  std::vector<ActionId> skipped;
  /// Actions excluded up front by the cutset this search ran under.
  std::vector<ActionId> cutset;
  /// Final state after replaying `schedule` from the initial state.
  Universe final_state;
  /// True iff every input action is accounted for (scheduled, skipped or
  /// cut) — the paper's "complete schedule" is `complete && skipped.empty()
  /// && cutset.empty()`, but applications usually just want `complete`.
  bool complete = false;
  /// Cost assigned by the selection stage; lower is better.
  double cost = 0.0;
  /// True iff this outcome was produced by the budget-exhaustion fallback
  /// (greedy insertion) rather than the search — valid, but with no
  /// optimality claim. See core/degrade.hpp.
  bool degraded = false;
};

/// Why a dynamic constraint failed.
enum class FailureKind : std::uint8_t { kPrecondition, kExecution };

/// Counters describing one reconciliation run.
struct SearchStats {
  std::uint64_t schedules_completed = 0;  ///< terminal nodes, complete
  std::uint64_t dead_ends = 0;            ///< terminal nodes, incomplete
  std::uint64_t sim_steps = 0;            ///< action simulations attempted
  std::uint64_t precondition_failures = 0;
  std::uint64_t execution_failures = 0;
  /// Failures answered from the §6 causal-key cache without re-simulation
  /// (only with ReconcilerOptions::memoize_failures).
  std::uint64_t memoized_failures = 0;
  std::uint64_t prefix_prunes = 0;  ///< prefixes abandoned by policy
  std::uint64_t state_clones = 0;   ///< shadow universe copies taken

  /// Object-level clone accounting from the copy-on-write universe (see
  /// Universe::CloneCounters): deep SharedObject clones actually performed,
  /// slot copies served by pointer sharing, and the approximate bytes the
  /// performed clones copied. Under `eager_state_copies` every slot of every
  /// shadow copy lands in `object_clones` — the ratio against the COW run
  /// is the headline `bench_state` reports.
  std::uint64_t object_clones = 0;
  std::uint64_t clones_avoided = 0;
  std::uint64_t bytes_cloned = 0;
  bool hit_limit = false;           ///< a SearchLimits bound was reached
  bool cutsets_truncated = false;   ///< cycle/cutset caps were reached
  std::size_t cutset_count = 0;     ///< number of proper cutsets searched

  /// Which solver backend produced this run ("dfs", "greedy", "ls",
  /// "auto"); benches tag every JSON row with it.
  std::string backend = "dfs";
  /// Local-search move accounting (zero for DFS/greedy): proposals
  /// generated and proposals accepted into the walk.
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_accepted = 0;

  /// Static-constraint construction work, copied from the builder's
  /// ConstraintBuildStats: ordered pair evaluations and SharedObject::order
  /// calls. The conflict graph's savings over the dense all-pairs scan show
  /// up here. The streaming daemon reuses `constraint_pairs_evaluated` for
  /// its incremental graph extension (new-vs-existing pairs only).
  std::uint64_t constraint_pairs_evaluated = 0;
  std::uint64_t constraint_order_calls = 0;

  /// Conflict-component decomposition and streaming-daemon accounting
  /// (src/solver/components.hpp, src/stream/). Batch sparse runs fill
  /// `components_resolved`; the commit fields stay zero outside the daemon.
  std::uint64_t components_resolved = 0;  ///< sub-problems solved
  std::uint64_t stream_epochs = 0;        ///< daemon solve/commit rounds
  std::uint64_t commit_violations = 0;    ///< re-solves contradicting commits
  std::uint64_t max_commit_lag = 0;       ///< peak ingested-minus-committed

  double elapsed_seconds = 0.0;
  /// Seconds from search start until the incumbent best outcome was found
  /// (unset if no outcome was recorded).
  std::optional<double> time_to_best;
  /// Number of schedules explored when the best outcome was found.
  std::uint64_t schedules_to_best = 0;

  /// Terminal nodes explored — the paper's "number of simulated schedules".
  [[nodiscard]] std::uint64_t schedules_explored() const {
    return schedules_completed + dead_ends;
  }

  /// Folds the per-cutset counters of `other` into this (used by the
  /// parallel driver when merging worker-local stats in cutset order).
  /// Timing fields and the constraint/cutset bookkeeping are left alone —
  /// they describe the whole run, not one cutset's search.
  void accumulate(const SearchStats& other) {
    schedules_completed += other.schedules_completed;
    dead_ends += other.dead_ends;
    sim_steps += other.sim_steps;
    precondition_failures += other.precondition_failures;
    execution_failures += other.execution_failures;
    memoized_failures += other.memoized_failures;
    prefix_prunes += other.prefix_prunes;
    state_clones += other.state_clones;
    object_clones += other.object_clones;
    clones_avoided += other.clones_avoided;
    bytes_cloned += other.bytes_cloned;
    moves_proposed += other.moves_proposed;
    moves_accepted += other.moves_accepted;
    components_resolved += other.components_resolved;
    stream_epochs += other.stream_epochs;
    commit_violations += other.commit_violations;
    if (other.max_commit_lag > max_commit_lag) {
      max_commit_lag = other.max_commit_lag;
    }
    hit_limit = hit_limit || other.hit_limit;
  }
};

/// One "new incumbent best" moment inside a single cutset's search, in
/// worker-local terms: just enough to replay the sequential engine's
/// best-so-far bookkeeping (Selection's ranking fields plus the local
/// schedule count) during the deterministic merge.
struct ImprovementEvent {
  double cost = 0.0;
  bool complete = false;
  std::size_t skipped = 0;
  std::uint64_t schedules_explored = 0;  ///< local terminals when found
  double seconds = 0.0;                  ///< wall seconds when found
};

}  // namespace icecube
