// Pipelined / anytime reconciliation (§2).
//
// The paper presents the three stages as sequential "to simplify
// exposition" but notes that "in fact they run in a pipeline with various
// feedback loops, in order to provide better interactivity and faster
// response". This facade exposes that mode: the search runs in bounded
// slices, and between slices the application can read the incumbent best
// outcome (e.g. to give the user immediate feedback, as §4.3 suggests for
// the H=All run that finds its optimum after two sequences), adjust its
// policy, or stop early and keep what was found.
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "core/reconciler.hpp"
#include "core/relations.hpp"
#include "core/selection.hpp"
#include "core/simulator.hpp"
#include "core/universe.hpp"
#include "solver/graph.hpp"
#include "util/timer.hpp"

namespace icecube {

/// The sparse constraint graph (DESIGN.md §13, §15): the only builder of
/// the adjacency-list SolverGraph and the only owner of its conflict
/// partition. Actions are added one at a time; each arrival evaluates only
/// its pairs against already-known actions sharing a target — amortised
/// O(overlap) per action, never touching the Θ(n²) matrix. The batch
/// greedy/local-search path feeds its records in flatten order (`build`);
/// the streaming daemon feeds arrivals as they come.
///
/// Alongside the graph it maintains the conflict-component partition
/// (union–find, merged small-into-large) and a dirty set: the components
/// touched by arrivals since the last `take_dirty_roots()`. The daemon
/// re-solves exactly those.
///
/// Ids are assigned in arrival order; the canonical cross-replica identity
/// of a record is its stream priority (solver/components.hpp), not its id.
class IncrementalConstraintGraph {
 public:
  /// `universe` supplies the `order` methods and the object-id space; it
  /// must outlive the graph. Actions may only target objects that already
  /// exist in it.
  explicit IncrementalConstraintGraph(const Universe& universe);

  /// The graph of `records` with ids equal to their indices — flatten
  /// order gives the batch ids.
  [[nodiscard]] static IncrementalConstraintGraph build(
      const Universe& universe, const std::vector<ActionRecord>& records);

  /// Appends one action and extends the graph. Returns the new id. When
  /// `merged` is non-null it receives the roots, as they were before this
  /// arrival, of the components the arrival joined — each once, ordered by
  /// the smallest partner id the arrival shares a target with.
  ActionId add_action(ActionPtr action, LogId log, std::size_t position,
                      std::vector<ActionId>* merged = nullptr);

  [[nodiscard]] const std::vector<ActionRecord>& records() const {
    return records_;
  }
  [[nodiscard]] const SolverGraph& graph() const { return graph_; }
  /// Moves the adjacency lists out; the graph is spent afterwards.
  [[nodiscard]] SolverGraph take_graph() { return std::move(graph_); }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Pair-evaluation work counters.
  [[nodiscard]] const ConstraintBuildStats& build_stats() const {
    return stats_;
  }

  /// Union–find root of `id`'s component (path-halving; cheap).
  [[nodiscard]] ActionId component_root(ActionId id);
  /// Members (unsorted) of the component rooted at `root`, materialised
  /// from the intrusive member chain into an internal scratch vector;
  /// valid until the next call or add_action.
  [[nodiscard]] const std::vector<ActionId>& component_members(ActionId root);
  [[nodiscard]] std::size_t component_count() const { return components_; }
  /// Every component, members sorted by stream priority and components by
  /// their minimum member's priority — the order the batch solver walks
  /// and merges them in.
  [[nodiscard]] std::vector<std::vector<ActionId>> components();

  /// Current roots of every component touched since the last call
  /// (deduplicated, in ascending root id); clears the dirty set.
  [[nodiscard]] std::vector<ActionId> take_dirty_roots();

 private:
  static constexpr std::uint32_t kNoMember = 0xffffffffU;

  [[nodiscard]] std::uint32_t find(std::uint32_t v);
  void unite(std::uint32_t a, std::uint32_t b);

  const Universe* universe_;
  std::vector<ActionRecord> records_;
  SolverGraph graph_;
  ConstraintBuildStats stats_;

  /// Target → action ids, the inverted index arrivals probe.
  std::vector<std::vector<ActionId>> by_target_;
  /// Per-existing-action stamp deduplicating multi-target pairs within one
  /// add_action call (value = new id + 1).
  std::vector<std::uint32_t> paired_stamp_;
  /// Scratch for one add_action call: the deduplicated partners, the slot
  /// each partner's shared-target set lives in (valid where the stamp
  /// matches), and a pool of shared-target vectors whose capacity is reused
  /// across arrivals.
  std::vector<ActionId> pair_others_;
  std::vector<std::uint32_t> pair_slot_;
  std::vector<std::vector<ObjectId>> pair_targets_pool_;
  /// Scratch for `merged`: per target, (smallest partner id under it, that
  /// partner's pre-arrival root).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> partner_roots_;

  std::vector<std::uint32_t> parent_;
  /// Component membership as an intrusive singly-linked chain per root
  /// (head/tail/size valid at roots only, next per id): unite splices in
  /// O(1) with zero allocation, where vector-of-vectors merging cost one
  /// heap singleton per arrival plus a copy per union.
  std::vector<std::uint32_t> member_head_;
  std::vector<std::uint32_t> member_tail_;
  std::vector<std::uint32_t> member_next_;  ///< kNoMember ends a chain
  std::vector<std::uint32_t> comp_size_;
  std::vector<ActionId> members_scratch_;  ///< component_members() output
  std::size_t components_ = 0;
  std::vector<std::uint32_t> dirty_roots_;  ///< raw, pre-find, may repeat
};

/// Single-shot, sliceable reconciliation. Construct, call `step()` until
/// `finished()`, then `take_result()` — or stop at any time and take what
/// has been found so far.
class IncrementalReconciler {
 public:
  IncrementalReconciler(Universe initial, std::vector<Log> logs,
                        ReconcilerOptions options = {},
                        Policy* policy = nullptr);
  ~IncrementalReconciler();

  IncrementalReconciler(const IncrementalReconciler&) = delete;
  IncrementalReconciler& operator=(const IncrementalReconciler&) = delete;

  /// Snapshot of search progress returned by `step`.
  struct Progress {
    std::uint64_t schedules_explored = 0;  ///< cumulative terminal nodes
    bool finished = false;                 ///< nothing left to explore
    bool has_best = false;                 ///< an incumbent outcome exists
    double best_cost = 0.0;                ///< cost of the incumbent
    std::size_t cutsets_remaining = 0;     ///< sub-searches not yet started
  };

  /// Explores up to `schedule_budget` further schedules and returns the
  /// updated progress. Calling after completion is a no-op.
  Progress step(std::uint64_t schedule_budget);

  [[nodiscard]] bool finished() const;
  /// The incumbent best outcome; valid only when progress reports has_best.
  [[nodiscard]] const Outcome& best() const { return selection_.best(); }
  [[nodiscard]] const SearchStats& stats() const { return stats_; }

  /// Stops the search (if still running) and returns everything found.
  /// The reconciler is spent afterwards.
  [[nodiscard]] ReconcileResult take_result();

  [[nodiscard]] const Relations& relations() const { return relations_; }
  [[nodiscard]] const std::vector<ActionRecord>& records() const {
    return records_;
  }

 private:
  [[nodiscard]] Progress progress() const;
  /// Advances to the next cutset's search; false when none remain.
  bool open_next_cutset();

  Universe initial_;
  std::vector<Log> logs_;
  ReconcilerOptions options_;
  Policy* policy_;
  std::unique_ptr<Policy> default_policy_;

  std::vector<ActionRecord> records_;
  ConstraintMatrix matrix_;
  Relations relations_;
  /// Shared §6 overlap index (see build_target_overlap); built once, handed
  /// to every cutset's simulator. Empty when memoization is off.
  std::vector<Bitset> target_overlap_;

  std::vector<Cutset> cutsets_;
  std::size_t next_cutset_ = 0;
  Relations working_;  ///< cutset-restricted relations the simulator reads

  Stopwatch clock_;
  Deadline deadline_;
  SearchStats stats_;
  Selection selection_;
  std::optional<Simulator> simulator_;
  bool done_ = false;
};

}  // namespace icecube
