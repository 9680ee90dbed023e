// The interleaved scheduling + simulation stage (§3.3–§3.4).
//
// Scheduler and simulator recursively explore every schedule consistent with
// D and I (as narrowed by the heuristic H). Each step evaluates the next
// action's precondition against the current state and, on success, executes
// it on a shadow copy; failures abort the branch (or drop the action, under
// FailureMode::kSkipAction). Terminal prefixes become outcomes handed to the
// selection stage.
//
// The search is implemented iteratively over an explicit frame stack, which
// makes it *resumable*: `start()` then repeated `step(budget)` calls explore
// a bounded number of schedules at a time; the parallel driver polls its
// cancellation flag between those chunks. The paper's feedback loops (§2:
// "they run in a pipeline with various feedback loops") go through
// `Policy::on_outcome`, which sees every recorded outcome before the
// selection stage and can stop the whole search; `SearchStats::time_to_best`
// and `schedules_to_best` say when the final best first appeared.
#pragma once

#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "core/relations.hpp"
#include "core/scheduler.hpp"
#include "core/selection.hpp"
#include "solver/graph.hpp"
#include "util/bitset.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace icecube {

/// Depth-first schedule explorer for a single cutset. The reconciler creates
/// one per accepted cutset, sharing the selection stage and statistics.
class Simulator {
 public:
  /// `relations` must already be restricted to the cutset (see
  /// `Relations::restricted`); `graph` is the whole problem's conflict
  /// graph, whose overlap lists feed the §6 causal keys. `clock` is the
  /// whole-run stopwatch used for time-to-best reporting, `deadline` the
  /// fixed point at which the search must stop (capture it once per run
  /// with `Deadline::after_seconds`). The deadline is immutable, so worker
  /// threads of the parallel driver can share one instance and poll it
  /// without synchronisation.
  Simulator(const std::vector<ActionRecord>& records,
            const Relations& relations, const SolverGraph& graph,
            const ReconcilerOptions& options, Policy& policy,
            Selection& selection, SearchStats& stats, const Stopwatch& clock,
            Deadline deadline);

  /// Mirrors every "new incumbent best" into `log` (see ImprovementEvent);
  /// the parallel driver uses this to reconstruct the sequential engine's
  /// best-so-far bookkeeping during the merge. Null disables (default).
  void set_improvement_log(std::vector<ImprovementEvent>* log) {
    improvements_ = log;
  }

  /// Explores all schedules for `cutset` from `initial`. Returns false when
  /// the global search must stop (limit reached or policy said stop).
  [[nodiscard]] bool run(const Cutset& cutset, const Universe& initial);

  /// Resumable interface: `start` primes the search, each `step` explores at
  /// most `schedule_budget` further terminal nodes. Returns true while more
  /// work remains for this cutset (and the global search may continue).
  void start(const Cutset& cutset, const Universe& initial);
  [[nodiscard]] bool step(std::uint64_t schedule_budget);

  /// True once every schedule of the current cutset has been explored.
  [[nodiscard]] bool exhausted() const { return stack_.empty(); }
  /// True when the whole search must stop (limits / policy).
  [[nodiscard]] bool stopped() const { return stop_; }

 private:
  /// One search node: a state plus the iteration position over its
  /// successor candidates.
  struct Frame {
    Universe state;
    ActionId via;  ///< action whose execution produced this node (invalid
                   ///< at the root)
    std::vector<ActionId> candidates;
    std::size_t next = 0;
    Bitset tried;
    std::size_t skips = 0;  ///< skip-mode drops charged to this node
    bool explored_child = false;
    bool recompute = false;  ///< a skip invalidated `candidates`
    std::vector<std::pair<ActionId, ActionId>> extra_deps;
  };

  /// Pushes the node reached via `via` with state `state`; returns false if
  /// the application pruned the prefix.
  bool push_node(Universe state, ActionId via);
  void pop_node();
  void fill_candidates(Frame& frame);
  void record_outcome(const Universe& state);
  /// A blank frame, reusing storage recycled by `pop_node` when available
  /// (steady-state search then does no per-node heap allocation beyond what
  /// the universe copy itself needs).
  [[nodiscard]] Frame acquire_frame();
  /// Folds the thread-local universe clone counters accrued since the last
  /// flush into `stats_`.
  void flush_clone_counters();
  [[nodiscard]] ActionId last_scheduled() const {
    return prefix_.empty() ? ActionId() : prefix_.back();
  }

  /// §6 failure memoization: the causal key of running `action` now — a
  /// hash of the action and the ordered prefix actions sharing a target
  /// with it (which fully determine its targets' state).
  [[nodiscard]] std::uint64_t causal_key(ActionId action) const;

  const std::vector<ActionRecord>& records_;
  const Relations& relations_;
  const SolverGraph& graph_;
  const ReconcilerOptions& options_;
  Policy& policy_;
  Selection& selection_;
  SearchStats& stats_;
  const Stopwatch& clock_;
  Deadline deadline_;
  std::vector<ImprovementEvent>* improvements_ = nullptr;

  std::optional<CandidateScheduler> scheduler_;  // created per start()
  std::optional<Rng> strict_rng_;

  Bitset done_;                        // scheduled ∪ skipped ∪ excluded
  std::vector<ActionId> prefix_;       // executed actions, in order
  std::vector<ActionId> skipped_;      // dropped actions (skip mode)
  std::vector<ActionId> cut_actions_;  // the active cutset
  std::vector<Frame> stack_;
  std::vector<Frame> spare_frames_;  // recycled frame storage (free-list)
  bool stop_ = false;

  // Baseline for flush_clone_counters (thread-local counters are monotonic;
  // the simulator accounts the delta it caused).
  Universe::CloneCounters clone_mark_;

  // Failure memoization (ReconcilerOptions::memoize_failures).
  std::unordered_map<std::uint64_t, FailureKind> known_failures_;
};

}  // namespace icecube
