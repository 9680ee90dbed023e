// Conflict-component decomposition of the sparse solver path.
//
// Two actions interact — statically (a D edge needs a shared target) or
// dynamically (preconditions and executions read/write targets only) — iff
// they are connected through the target-overlap relation. A connected
// component of that relation is therefore an independent sub-problem: its
// schedule, statuses and final slot values do not depend on any other
// component, and any interleaving of per-component schedules is a valid
// global schedule.
//
// IncrementalConstraintGraph maintains the partition as a union–find while
// it builds the graph (edges are a subset of overlaps — an unsafe pair
// shares a target — so overlap connectivity is the whole relation).
//
// Every local search exploits this by solving each component separately
// and merging deterministically — the greedy/local-search backends over the
// whole problem, the auto backend over each large cutset's remainder
// (solve_decomposed, local_search.hpp). Beyond the straight perf win
// (per-component walks, no cross-component move proposals that can never
// change a status), the decomposition is what makes *streaming*
// reconciliation exact: the daemon re-solves only components touched by new
// arrivals, and because each component is compacted into local ids assigned
// in stream-priority order — the (log, position) rank, which batch
// `flatten()` ids follow — a component's sub-problem is bit-identical
// whether its members arrived one at a time in any interleaving or all at
// once. Same sub-problem + same canonical seed = same solution, so a
// streamed run's final merged schedule equals the batch run's.
#pragma once

#include <cstdint>
#include <vector>

#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/universe.hpp"
#include "solver/graph.hpp"
#include "util/bitset.hpp"
#include "util/ids.hpp"
#include "util/timer.hpp"

namespace icecube {

/// The (log, position) rank of a record packed into one key. Batch flatten
/// assigns ActionIds in exactly this order; the streaming daemon assigns
/// ids in arrival order, so priority — not id — is the canonical identity
/// both sides agree on.
[[nodiscard]] inline std::uint64_t stream_priority(const ActionRecord& rec) {
  return (static_cast<std::uint64_t>(rec.log.value()) << 32) |
         static_cast<std::uint64_t>(rec.position);
}

/// One component compacted into a self-contained sub-problem. Local ids
/// 0..m-1 are assigned in stream-priority order, so the engine's min-id
/// tie-breaks (Kahn queue, frozen tail) are arrival-order invariant.
struct SubProblem {
  std::vector<ActionRecord> records;  ///< local id → record
  SolverGraph graph;                  ///< adjacency remapped to local ids
  std::vector<ActionId> global_ids;   ///< local id → caller id
  std::uint64_t min_priority = 0;     ///< priority of local id 0
};

/// Compacts one component (members as caller ids, any order) into a
/// SubProblem.
[[nodiscard]] SubProblem extract_subproblem(
    const std::vector<ActionRecord>& records, const SolverGraph& graph,
    const std::vector<ActionId>& members);

/// Per-position result of replaying a configuration.
enum class RunStatus : std::uint8_t { kExecuted, kFailed, kDropped };

/// A solved component: the full best permutation in caller ids — live
/// prefix (positions < live_end) then the frozen cycle tail — with
/// per-position replay statuses.
struct ComponentSolution {
  std::vector<ActionId> sequence;
  std::vector<RunStatus> status;
  std::size_t live_end = 0;
  std::uint64_t min_priority = 0;
};

/// The greedy construction over a sub-problem: min-local-id Kahn order with
/// cycle members frozen at the tail. LocalSearchEngine starts from it; the
/// greedy backend and singleton components use it without building an
/// engine. Returns local ids.
struct GreedyOrder {
  std::vector<ActionId> sched;
  std::size_t live_end = 0;
};
[[nodiscard]] GreedyOrder greedy_order(const SolverGraph& graph);

/// Replays one configuration (`sched` in local ids, `dropped` per local id)
/// of `sub` against `working`, first rewinding every slot the component
/// touches back to `pristine`. Skip-on-failure semantics match the
/// engine's: a precondition failure never mutates; a failing execute's
/// partial mutation is repaired by replaying the executed prefix. Returns
/// per-position statuses; `working` is left at the component's final state
/// (all other slots untouched — components are target-disjoint).
[[nodiscard]] std::vector<RunStatus> replay_component(
    const SubProblem& sub, const std::vector<ActionId>& sched,
    const Bitset& dropped, const Universe& pristine, Universe& working);

/// Solves one compacted component sub-problem and replays its best
/// configuration into `working` (see replay_component). Greedy construction
/// alone — no engine — when `allow_moves` is false or the component is a
/// singleton: a singleton's only move is the drop-flip, which can never
/// strictly improve the incumbent, so the engine's best would be the greedy
/// configuration anyway. With moves on, a LocalSearchEngine runs with the
/// canonical per-component seed `options.local_search.seed +
/// 0x9e3779b97f4a7c15 * sub.min_priority` — derived from the component's
/// minimum stream priority, which batch and streamed runs agree on.
/// `initial_digest` is universe_state_digest(pristine), computed once by
/// the caller. Work counters accumulate into `stats`.
[[nodiscard]] ComponentSolution solve_component(
    const SubProblem& sub, const Universe& pristine, Universe& working,
    const ReconcilerOptions& options, bool allow_moves,
    std::uint64_t initial_digest, const Deadline& deadline,
    SearchStats& stats);

/// Deterministic merge of per-component solutions: live parts are k-way
/// merged taking the component whose next element has the smallest stream
/// priority; frozen tails are merged the same way after every live part is
/// exhausted (mirroring the single-engine layout [live][frozen]). Appends
/// caller ids to `sequence`/`status`.
void merge_solutions(const std::vector<const ComponentSolution*>& parts,
                     const std::vector<ActionRecord>& records,
                     std::vector<ActionId>& sequence,
                     std::vector<RunStatus>& status);

}  // namespace icecube
