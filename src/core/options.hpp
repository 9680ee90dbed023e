// Engine configuration: heuristics, failure handling, limits.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace icecube {

/// The scheduling heuristic H (§3.3). Controls how the independence
/// relation I narrows the successor candidates of a prefix.
enum class Heuristic : std::uint8_t {
  kAll,    ///< try every D-consistent successor; I is ignored
  kSafe,   ///< try only I-successors of the last action when any exist
  kStrict  ///< try exactly one I-successor when any exists, else S − B
};

[[nodiscard]] constexpr std::string_view to_string(Heuristic h) {
  switch (h) {
    case Heuristic::kAll:
      return "All";
    case Heuristic::kSafe:
      return "Safe";
    case Heuristic::kStrict:
      return "Strict";
  }
  return "?";
}

/// What to do when an action's precondition or execution fails during
/// simulation.
///
/// `kAbortBranch` is the letter of §3.4: the branch below the failing action
/// is abandoned (sibling candidates are still explored). `kSkipAction` drops
/// the failing action from the remainder of the subtree and continues — the
/// behaviour of the later IceCube systems, required to reach "complete"
/// schedules when some actions are inherently doomed (see DESIGN.md §5.3).
enum class FailureMode : std::uint8_t { kAbortBranch, kSkipAction };

[[nodiscard]] constexpr std::string_view to_string(FailureMode m) {
  switch (m) {
    case FailureMode::kAbortBranch:
      return "AbortBranch";
    case FailureMode::kSkipAction:
      return "SkipAction";
  }
  return "?";
}

/// Interpretation of the B set in H=Strict with C=∅ (see DESIGN.md §5.2).
enum class BRule : std::uint8_t {
  kPaperLiteral,  ///< B = {b ∈ S : ∃c ∈ C, c I b} — vacuous when C = ∅
  kLookahead      ///< B = {b ∈ S : ∃c ∈ S \ {b}, c I b}
};

/// Which search engine turns a cutset sub-problem into outcomes. See
/// src/solver/backend.hpp and DESIGN.md §13.
enum class SolverKind : std::uint8_t {
  kDfs,          ///< exhaustive cutset DFS (the paper's search; optimal)
  kGreedy,       ///< one topological construction + replay-with-skip
  kLocalSearch,  ///< seeded SA/tabu over permutations, incremental eval
  kAuto          ///< DFS on small cutsets, local search on large ones
};

[[nodiscard]] constexpr std::string_view to_string(SolverKind k) {
  switch (k) {
    case SolverKind::kDfs:
      return "dfs";
    case SolverKind::kGreedy:
      return "greedy";
    case SolverKind::kLocalSearch:
      return "ls";
    case SolverKind::kAuto:
      return "auto";
  }
  return "?";
}

/// Knobs for the local-search backend (SolverKind::kLocalSearch). The walk
/// is fully determined by `seed` and these parameters (the annealing
/// schedule and move mix are constants in solver/local_search.cpp) —
/// identical runs give identical schedules regardless of thread count.
struct LocalSearchOptions {
  std::uint64_t seed = 0x1cecbe0ULL;
  /// Move proposals before stopping (each proposal may or may not be
  /// evaluated; infeasible proposals count so the loop always terminates).
  std::uint64_t max_moves = 20000;
  /// Stop after this many consecutive proposals without a new incumbent.
  std::uint64_t stall_moves = 5000;
  /// Recently-moved actions may not move again for this many accepted moves
  /// (aspiration: a move that improves the incumbent ignores tabu). 0
  /// disables the tabu list.
  std::size_t tabu_tenure = 24;
  /// COW snapshot checkpoint spacing for suffix re-simulation; 0 derives
  /// max(16, n/128) capped at 512 from the cutset size.
  std::size_t checkpoint_interval = 0;
};

/// Hard bounds on the search. The paper caps runs at 100,000 simulations;
/// we additionally support wall-clock and step budgets.
struct SearchLimits {
  /// Maximum number of schedules *explored* (terminal nodes: completed or
  /// dead-ended), mirroring the paper's simulation cap.
  std::uint64_t max_schedules = 100000;
  /// Maximum individual action simulations (precondition+execute attempts).
  std::uint64_t max_steps = UINT64_MAX;
  /// Wall-clock budget in seconds; <= 0 disables.
  double max_seconds = 0.0;
};

/// kAuto: cutset sub-problems with at most this many schedulable actions go
/// to DFS, larger ones to local search.
inline constexpr std::size_t kAutoDfsMaxActions = 32;
/// Caps Reconciler puts on the cycle/cutset analysis (find_proper_cutsets).
inline constexpr std::size_t kMaxCycles = 10000;
inline constexpr std::size_t kMaxCutsets = 64;

/// Top-level reconciler configuration.
struct ReconcilerOptions {
  Heuristic heuristic = Heuristic::kSafe;
  FailureMode failure_mode = FailureMode::kAbortBranch;
  BRule b_rule = BRule::kLookahead;
  SearchLimits limits;

  /// Which solver backend runs each cutset sub-problem (DESIGN.md §13).
  /// kDfs preserves the historical engine bit-for-bit; kGreedy and
  /// kLocalSearch scale to logs the DFS cannot finish; kAuto keeps DFS as
  /// the optimality oracle on cutsets no larger than kAutoDfsMaxActions
  /// and hands the rest to local search.
  SolverKind backend = SolverKind::kDfs;
  LocalSearchOptions local_search;
  /// Above this action count the greedy/local-search backends skip the
  /// dense constraint matrix, transitive closure and cutset analysis
  /// entirely and build a sparse constraint graph instead (the dense
  /// structures are Θ(n²) and wall off 10k+-action logs). DFS always uses
  /// the dense path — it needs the closed relations.
  std::size_t dense_graph_limit = 4096;

  /// How many best outcomes to retain (ranked by the policy cost).
  std::size_t keep_outcomes = 8;
  /// Record dead-end prefixes as (partial) outcomes, not just complete
  /// schedules. The selection stage ranks both; §4.3's "solutions equivalent
  /// to log 1 alone" are such partial outcomes.
  bool record_partial_outcomes = true;

  /// Anytime degradation: when `limits` exhaust without any complete
  /// schedule, fall back to a greedy-insertion pass over the action set and
  /// offer its (valid, non-optimal) schedule alongside whatever partial
  /// outcomes the search retained. The reconcile result is then marked
  /// `degraded`. See core/degrade.hpp.
  bool degrade_on_exhaustion = true;

  /// Static-equivalence pruning (§2: "recognises that other solutions are
  /// statically equivalent and do not need to be evaluated"). Schedules that
  /// differ only by transpositions of adjacent fully-commuting actions
  /// (safe in both directions) reach the same final state; when enabled the
  /// search explores only the representatives with no adjacent commuting
  /// inversion (the trace-monoid normal-form characterisation). Sound for
  /// H=All on the set of reachable final states; under Safe/Strict it
  /// composes with (and can compound) the heuristics' own incompleteness.
  bool prune_equivalent = false;

  /// Failure memoization (§6: "use the causality information ... to
  /// identify schedules that will fail identically"). An action's dynamic
  /// outcome depends only on the state of its target objects, which is
  /// determined by the ordered subsequence of executed actions sharing a
  /// target with it. Failures are cached under that causal key and replayed
  /// without re-simulating. Requires actions to read and write only their
  /// declared targets (true of every substrate in this repository).
  bool memoize_failures = false;

  /// Oracle switch for the state-management layer: when set, every universe
  /// copy in the search deep-clones every object (the pre-COW behaviour)
  /// instead of sharing copy-on-write slots. Results are bit-for-bit
  /// identical in both modes — only the `object_clones` / `clones_avoided` /
  /// `bytes_cloned` counters (and the wall clock) differ. Kept, like the
  /// dense constraint builder, as the reference the equivalence tests and
  /// `bench_state` measure the COW path against.
  bool eager_state_copies = false;

  /// H=Strict picks "one action in C arbitrarily"; with 0 the first
  /// candidate (deterministic) is taken, otherwise a seeded pseudo-random
  /// member.
  std::uint64_t strict_pick_seed = 0;

  /// Worker threads for the parallel engine. Independent cutsets' schedule
  /// searches run concurrently and static-constraint pairs are sharded
  /// across the same pool; results are merged in cutset order with budgets
  /// carved from `limits`, so outcomes, schedule orderings and (non-timing)
  /// stats are bit-for-bit identical for every thread count.
  ///
  ///   1 — fully sequential (default; the pre-parallel engine, no pool)
  ///   0 — one lane per hardware thread
  ///   N — N lanes
  ///
  /// With threads != 1 the attached Policy's hooks are invoked from worker
  /// threads concurrently and must be thread-safe; stateless policies (the
  /// default Policy, JigsawPolicy, ...) qualify as-is. Policies that
  /// accumulate state across outcomes or cutsets should stay at threads=1.
  std::size_t threads = 1;
};

}  // namespace icecube
