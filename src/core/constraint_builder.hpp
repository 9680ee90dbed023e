// Pairwise static constraints (§2.3) and the one code that enumerates them.
//
// `constraint(a, b)` records whether `a` may precede `b`. It comes from
// three sources: log order, target identity, and the per-object `order`
// method. Only pairs sharing a target can be anything but `safe`, and
// `IncrementalConstraintGraph` is the only code that walks those pairs and
// calls `order()` for the engine: it builds the sparse SolverGraph every
// backend and the §6 causal keys read, the conflict-component partition,
// and — when asked — the dense matrix the DFS path derives its Relations
// from. `build_constraints_dense` is the all-pairs oracle the equivalence
// tests compare it against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/constraint.hpp"
#include "core/log.hpp"
#include "core/universe.hpp"
#include "solver/graph.hpp"
#include "util/ids.hpp"

namespace icecube {

/// Dense N×N matrix of `Constraint` values over a flattened action set.
class ConstraintMatrix {
 public:
  ConstraintMatrix() = default;
  explicit ConstraintMatrix(std::size_t n)
      : n_(n), cells_(n * n, Constraint::kSafe) {}

  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] Constraint at(ActionId a, ActionId b) const {
    return cells_[a.index() * n_ + b.index()];
  }
  void set(ActionId a, ActionId b, Constraint c) {
    cells_[a.index() * n_ + b.index()] = c;
  }

 private:
  std::size_t n_ = 0;
  std::vector<Constraint> cells_;
};

/// Computes `constraint(a, b)` for one pair of action records, per the
/// summary rules of §2.3:
///
///   constraint(a,b) = safe                      if targets(a) ∩ targets(b) = ∅
///                   = safe                      if a before b in the same log
///                   = most-constraining over common targets of
///                     target.order(a, b, rel)   otherwise
///
/// `universe` supplies the order methods; constraint evaluation never touches
/// mutable object state.
[[nodiscard]] Constraint evaluate_constraint(const Universe& universe,
                                             const ActionRecord& a,
                                             const ActionRecord& b);

/// Work counters for one construction. The graph's whole point is doing
/// less of this than the dense all-pairs scan, so both builders count and
/// the equivalence tests compare.
struct ConstraintBuildStats {
  /// Ordered (a, b) pairs for which an evaluation ran. The dense builder
  /// evaluates all n·(n−1); the graph only the log-reversing directions of
  /// pairs sharing at least one target.
  std::uint64_t pairs_evaluated = 0;
  /// Shared-target set computations. The dense builder recomputes the set
  /// for (a, b) and again for (b, a); the graph computes it once per
  /// unordered pair.
  std::uint64_t target_set_builds = 0;
  /// `SharedObject::order` invocations. Both builders scan a direction's
  /// shared targets in the first action's target order and stop at the
  /// first `unsafe`, so they make the same calls.
  std::uint64_t order_calls = 0;
};

/// The original O(n²) all-pairs reference builder. Kept as the oracle for
/// the graph-vs-dense equivalence tests and for complexity comparisons.
[[nodiscard]] ConstraintMatrix build_constraints_dense(
    const Universe& universe, const std::vector<ActionRecord>& records,
    ConstraintBuildStats* stats = nullptr);

/// The conflict graph (DESIGN.md §8, §13, §15). Actions are added one at a
/// time; each arrival probes a target→actions inverted index and evaluates
/// only its pairs against already-known actions sharing a target, skipping
/// the recorded direction of a same-log pair (safe by rule 2) — amortised
/// O(overlap) per action. Batch callers feed records in flatten order
/// (`build`); the streaming daemon feeds arrivals as they come.
///
/// Alongside the SolverGraph it maintains the conflict-component partition
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
  /// order gives the batch ids. The records move into the graph; a caller
  /// that needs them afterwards takes them back with `take_records`. When
  /// `dense` is non-null it is reset to the n×n matrix of the same pass:
  /// every evaluated direction is written, every other cell keeps the
  /// `safe` default, which §2.3 assigns to disjoint pairs and to same-log
  /// pairs in their recorded order. The result equals
  /// `build_constraints_dense`.
  [[nodiscard]] static IncrementalConstraintGraph build(
      const Universe& universe, std::vector<ActionRecord> records,
      ConstraintMatrix* dense = nullptr);

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
  /// Moves the records out; the graph is spent afterwards.
  [[nodiscard]] std::vector<ActionRecord> take_records() {
    return std::move(records_);
  }
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
  /// The shared targets of `other` and the arriving action in `other`'s
  /// target order (the pool slot holds them in the arrival's order).
  [[nodiscard]] const std::vector<ObjectId>& shared_in_order_of(
      ActionId other, const std::vector<ObjectId>& shared);

  const Universe* universe_;
  std::vector<ActionRecord> records_;
  SolverGraph graph_;
  ConstraintBuildStats stats_;
  /// Set only while `build` runs: the matrix evaluated directions go to.
  ConstraintMatrix* dense_ = nullptr;

  /// Target → action ids, the inverted index arrivals probe.
  std::vector<std::vector<ActionId>> by_target_;
  /// Every action's target list, duplicates dropped, in one flat array:
  /// action v's targets are [target_begin_[v], target_begin_[v + 1]).
  std::vector<ObjectId> target_list_;
  std::vector<std::uint32_t> target_begin_{0};
  /// Per-existing-action stamp deduplicating multi-target pairs within one
  /// add_action call (value = new id + 1).
  std::vector<std::uint32_t> paired_stamp_;
  /// Scratch for one add_action call: the deduplicated partners, the slot
  /// each partner's shared-target set lives in (valid where the stamp
  /// matches), a pool of shared-target vectors whose capacity is reused
  /// across arrivals, and the reordered set of shared_in_order_of.
  std::vector<ActionId> pair_others_;
  std::vector<std::uint32_t> pair_slot_;
  std::vector<std::vector<ObjectId>> pair_targets_pool_;
  std::vector<ObjectId> reordered_;
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

/// Renders the matrix as an aligned text table (used by the figure benches
/// and handy in test failures).
[[nodiscard]] std::string render_matrix(
    const ConstraintMatrix& matrix, const std::vector<std::string>& labels);

}  // namespace icecube
