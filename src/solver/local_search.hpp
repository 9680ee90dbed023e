// Local-search solver: seeded SA/tabu over schedule permutations with
// incremental suffix re-simulation (DESIGN.md §13).
//
// Fages (*CLP versus LS on Log-based Reconciliation Problems*) shows that on
// log-based reconciliation, local search over candidate schedules decisively
// beats complete search at scale. This engine walks the space of
// (permutation, drop-set) configurations:
//
//   * the permutation always stays *topological* w.r.t. the raw D edges
//     (moves are feasibility-checked in O(deg) against the adjacency lists),
//     which is exactly "respects the closed relation";
//   * every action not executed is skipped, never aborted — the walk's
//     configurations are all complete outcomes in the paper's sense;
//   * the internal objective is the default policy cost,
//     -(executed) + 0.25·(skipped): strictly fewer skips is strictly better.
//
// Move evaluation is incremental: the engine keeps a stack of COW Universe
// snapshots every K positions plus a per-checkpoint 64-bit state digest
// (XOR of per-slot fingerprint hashes, maintained per mutation). A move
// re-simulates only from the checkpoint at or below the first changed
// position, and stops as soon as it crosses a checkpoint at or beyond the
// last changed position with an unchanged digest — from there the old
// statuses provably replay identically. A rejected move is undone from the
// saved statuses/checkpoints without re-simulation.
//
// The walk is fully determined by LocalSearchOptions::seed (plus the
// options): no threads, no wall-clock dependence unless a deadline or step
// budget actually expires mid-run.
#pragma once

#include <cstdint>
#include <vector>

#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/universe.hpp"
#include "solver/backend.hpp"
#include "solver/graph.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace icecube {

/// Absolute 64-bit state digest of a universe under the engine's slot-mix
/// convention (XOR of keyed per-slot fingerprint hashes). Computing it
/// walks every slot; callers solving many components against one initial
/// universe compute it once and hand it to each engine.
[[nodiscard]] std::uint64_t universe_state_digest(const Universe& universe);

/// The annealing walk over one sub-problem. Exposed (rather than hidden in
/// the backend) so the oracle test can drive single steps and compare the
/// incremental cost against a full fresh replay.
class LocalSearchEngine {
 public:
  /// Every record takes part in the walk; all references must outlive the
  /// engine. Construction performs the greedy build: `greedy_order` (the
  /// min-id topological permutation, cycle members frozen at the tail)
  /// replayed once with skip-on-failure — so the start configuration, and
  /// therefore the final result, is never worse than the greedy backend's.
  /// `initial_digest`, when non-null, must equal
  /// `universe_state_digest(initial)` and skips that O(slots) walk.
  LocalSearchEngine(const std::vector<ActionRecord>& records,
                    const SolverGraph& graph, const Universe& initial,
                    const LocalSearchOptions& opts,
                    const std::uint64_t* initial_digest = nullptr);

  /// Proposes (and maybe applies) one move. Returns false once the stall
  /// budget says stop. Does not check deadlines — `run` does.
  bool step();

  /// The annealing loop: steps until `max_proposals`, the stall budget, the
  /// deadline or the step budget ends the walk. Returns true iff a budget
  /// (deadline/steps) was hit rather than the move/stall budget.
  bool run(std::uint64_t max_proposals, const Deadline& deadline,
           std::uint64_t max_sim_steps);

  /// Current / incumbent-best internal objective value.
  [[nodiscard]] double current_cost() const;
  [[nodiscard]] double best_cost() const { return best_cost_; }

  /// Oracle: replays the *current* configuration from the initial universe
  /// with none of the incremental machinery and returns its objective. The
  /// suffix-resimulation test asserts this equals `current_cost()` after
  /// every move.
  [[nodiscard]] double full_replay_cost() const;

  /// The incumbent-best configuration. The component solver replays it
  /// against its shared working universe. Positions >= live_end() are the
  /// frozen cycle tail, in ascending id order — moves never touch it.
  [[nodiscard]] const std::vector<ActionId>& best_schedule() const {
    return best_sched_;
  }
  [[nodiscard]] const Bitset& best_dropped() const { return best_dropped_; }
  [[nodiscard]] std::size_t live_end() const { return live_end_; }

  [[nodiscard]] std::uint64_t proposals() const { return proposals_; }
  [[nodiscard]] std::uint64_t evaluations() const { return evaluations_; }
  [[nodiscard]] std::uint64_t accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t sim_steps() const { return sim_steps_; }
  [[nodiscard]] std::uint64_t snapshots_taken() const { return snapshots_; }

 private:
  enum class PosStatus : std::uint8_t { kExecuted, kFailed, kDropped };

  /// Everything needed to revert one rejected move.
  struct Undo {
    std::vector<std::pair<std::size_t, PosStatus>> statuses;
    std::vector<std::pair<std::size_t, Universe>> checkpoints;
    std::vector<std::pair<std::size_t, std::uint64_t>> digests;
    std::size_t executed = 0;
    std::size_t failed = 0;
    std::size_t dropped = 0;
  };

  // Move generation; each returns true iff a feasible move was applied and
  // evaluated (writing the revert info into `undo`).
  bool propose_swap(Undo& undo);
  bool propose_reinsert(Undo& undo);
  bool propose_rescue(Undo& undo);
  bool propose_flip(Undo& undo);

  /// Moves sched_[from] to position `to` (rotating the range between) and
  /// re-evaluates. Shared by reinsert and rescue.
  bool apply_reinsert(std::size_t from, std::size_t to, Undo& undo);

  /// Re-simulates positions [first_changed, …) from the checkpoint at or
  /// below `first_changed`, stopping at the first checkpoint ≥ `changed_end`
  /// whose state digest is unchanged.
  void resimulate(std::size_t first_changed, std::size_t changed_end,
                  Undo& undo);
  /// One fresh simulation attempt of `id` against `state`; returns the new
  /// status and keeps `digest` in sync (rebuilding from the checkpoint below
  /// `k` on the rare tainting execute failure).
  PosStatus simulate_at(Universe& state, std::uint64_t& digest, std::size_t k,
                        ActionId id);
  /// Re-applies a known-executed action (prefix replay), digest-tracked.
  void replay_executed(Universe& state, std::uint64_t& digest, ActionId id);

  void revert(Undo& undo);
  /// SA acceptance rule on the evaluated move's costs.
  [[nodiscard]] bool decide(double before, double after);
  /// Post-acceptance bookkeeping: tabu stamps, incumbent update.
  void commit(double after, ActionId moved_a, ActionId moved_b);
  void note_acceptance(ActionId moved_a, ActionId moved_b);
  [[nodiscard]] bool is_tabu(ActionId id) const;
  [[nodiscard]] bool edge_blocks_swap(ActionId first, ActionId second) const;
  [[nodiscard]] double cost_of(std::size_t executed, std::size_t failed,
                               std::size_t dropped) const;

  const std::vector<ActionRecord>& records_;
  const SolverGraph& graph_;
  const Universe& initial_;
  LocalSearchOptions opts_;

  std::vector<ActionId> sched_;       // topological permutation
  std::vector<std::size_t> pos_;      // action index → position
  std::vector<PosStatus> status_;     // per position
  Bitset dropped_;                    // per action: flip-dropped or frozen
  std::size_t live_end_ = 0;          // positions < live_end_ are movable
  std::size_t executed_ = 0;
  std::size_t failed_ = 0;
  std::size_t dropped_count_ = 0;

  std::size_t interval_ = 64;              // checkpoint spacing K
  std::vector<Universe> checkpoints_;      // state before position c·K
  std::vector<std::uint64_t> digests_;     // state digest at each checkpoint
  std::vector<std::vector<ObjectId>> targets_;  // per action, fetched once

  Rng rng_;
  double temperature_ = 0.0;
  std::vector<std::uint64_t> tabu_until_;  // per action, vs accepted_
  std::uint64_t proposals_ = 0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t stall_ = 0;
  std::uint64_t sim_steps_ = 0;
  std::uint64_t snapshots_ = 0;

  std::vector<ActionId> best_sched_;
  Bitset best_dropped_;
  double best_cost_ = 0.0;
};

/// The sparse solve every greedy/local-search path runs: each conflict
/// component of `ctx.graph` (listed in `ctx.components`) is compacted,
/// solved by `solve_component` — local search when `allow_moves`, its greedy
/// construction otherwise — and the parts are merged deterministically (see
/// solver/components.hpp). Past the deadline the remaining components fall
/// back to their greedy construction. Returns the complete outcome in ids of
/// `ctx.records`; its cutset and cost are left to the caller.
[[nodiscard]] Outcome solve_decomposed(const SolveContext& ctx,
                                       bool allow_moves, SearchStats& stats);

/// Costs `out` with `ctx.policy`, reports it to the policy and offers it to
/// `selection`. Returns the policy's keep-going verdict.
bool offer_outcome(const SolveContext& ctx, Outcome out, Selection& selection,
                   SearchStats& stats);

/// Backend wrapper: the decomposed solve with moves on, best outcome offered
/// to the selection.
class LocalSearchBackend final : public SolverBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "ls"; }
  void solve(const SolveContext& ctx, Selection& selection,
             SearchStats& stats) override;
};

/// Greedy-repair baseline: exactly the local-search start configuration
/// (`greedy_order` per component, one replay with skip), zero moves.
class GreedyBackend final : public SolverBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "greedy"; }
  void solve(const SolveContext& ctx, Selection& selection,
             SearchStats& stats) override;
};

}  // namespace icecube
