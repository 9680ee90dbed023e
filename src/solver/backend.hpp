// Pluggable solver backends (DESIGN.md §13).
//
// A backend turns one reconciliation problem — action records, constraints,
// an initial universe, optional cutsets — into outcomes offered to the
// shared Selection. Three are registered:
//
//   kDfs          the paper's exhaustive cutset DFS, migrated verbatim from
//                 Reconciler::run (bit-for-bit identical schedules for a
//                 fixed seed/thread count; parallel_driver and
//                 CandidateScheduler untouched)
//   kGreedy       one topological construction + replay-with-skip; the
//                 scalable floor every other backend must beat
//   kLocalSearch  seeded simulated-annealing/tabu over schedule permutations
//                 with incremental suffix re-simulation (local_search.hpp)
//   kAuto         DFS where it is affordable (cutsets no larger than
//                 kAutoDfsMaxActions — the optimality oracle), local search
//                 on the remainder of every larger cutset
//
// The DFS backend consumes the dense Relations and runs one search per
// proper cutset; the greedy/local-search backends consume the sparse
// SolverGraph and treat dependence cycles by freezing the cycle members out
// of the schedule (they land in Outcome::skipped), so they need neither the
// transitive closure nor the cutset analysis. Every local search runs
// through one driver, the per-component `solve_decomposed`
// (local_search.hpp): kAuto builds the sparse graph of a large cutset's
// remaining actions and hands it to the same solve.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "core/relations.hpp"
#include "core/selection.hpp"
#include "core/universe.hpp"
#include "solver/graph.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace icecube {

/// Everything a backend needs for one solve. All pointers are non-owning
/// and must outlive the call; fields irrelevant to a backend may be null as
/// documented per member. Reconciler fills it from one ConstraintStage, so
/// the graph, the matrix behind `relations` and the §6 overlap lists all
/// come from the same pair pass.
struct SolveContext {
  const std::vector<ActionRecord>* records = nullptr;
  const Universe* initial = nullptr;
  const ReconcilerOptions* options = nullptr;
  Policy* policy = nullptr;
  const Deadline* deadline = nullptr;
  const Stopwatch* clock = nullptr;

  /// Dense relations + proper cutsets: required by kDfs and kAuto, null on
  /// the sparse path.
  const Relations* relations = nullptr;
  const std::vector<Cutset>* cutsets = nullptr;
  /// The problem's conflict graph, required by every backend: kGreedy and
  /// kLocalSearch search it, kDfs reads its overlap lists for the §6 causal
  /// keys. kAuto's DFS part reads it too; each large cutset gets a graph of
  /// its own over the actions outside it.
  const SolverGraph* graph = nullptr;
  /// Its conflict components (priority-sorted, see
  /// IncrementalConstraintGraph::components): required by
  /// kGreedy/kLocalSearch, null on the dense path.
  const std::vector<std::vector<ActionId>>* components = nullptr;

  /// Worker pool for the DFS parallel driver (null = sequential). The
  /// greedy/local-search backends are single-threaded by construction —
  /// their determinism is thread-count-invariant trivially.
  ThreadPool* pool = nullptr;
};

/// One solver strategy. Implementations append outcomes to `selection` and
/// fold their work counters into `stats` (`stats.backend` is set by the
/// caller, not the backend).
class SolverBackend {
 public:
  SolverBackend() = default;
  SolverBackend(const SolverBackend&) = default;
  SolverBackend& operator=(const SolverBackend&) = default;
  SolverBackend(SolverBackend&&) = default;
  SolverBackend& operator=(SolverBackend&&) = default;
  virtual ~SolverBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  virtual void solve(const SolveContext& ctx, Selection& selection,
                     SearchStats& stats) = 0;
};

/// Backend registry keyed by the options enum.
[[nodiscard]] std::unique_ptr<SolverBackend> make_solver_backend(
    SolverKind kind);

}  // namespace icecube
