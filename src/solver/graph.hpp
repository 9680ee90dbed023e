// Sparse constraint graph for the scalable solver backends (DESIGN.md §13).
//
// The DFS engine consumes the dense ConstraintMatrix and the Warshall-closed
// Relations — both Θ(n²) (the closure Θ(n³/64)), which walls off 10k+-action
// logs long before the search itself does. The greedy and local-search
// backends only ever ask two questions:
//
//   * which actions must precede action a (the raw D edges), and
//   * which actions share a target with a (the conflict neighbourhood),
//
// so they run against this adjacency-list form instead. Both questions stay
// answerable without the transitive closure because those backends maintain
// a *topological* permutation invariant: a permutation respects the closed
// relation iff it respects every raw edge.
//
// The lists are built by IncrementalConstraintGraph
// (core/constraint_builder.hpp), the one pair pass: the batch paths feed it
// records in flatten order, the streaming daemon feeds it arrivals one at a
// time. The DFS path reads the same graph's overlap lists for the §6 causal
// keys.
#pragma once

#include <cstddef>
#include <vector>

#include "util/ids.hpp"

namespace icecube {

/// Adjacency-list view of the dependence relation and the target-overlap
/// neighbourhoods. All lists are sorted by action id.
struct SolverGraph {
  std::size_t n = 0;
  /// preds[b] = every a with a raw D edge a → b ("a must precede b").
  std::vector<std::vector<ActionId>> preds;
  /// succs[a] = every b with a raw D edge a → b.
  std::vector<std::vector<ActionId>> succs;

  /// overlap_lists[a] = every other action sharing at least one target
  /// with a.
  std::vector<std::vector<ActionId>> overlap_lists;

  [[nodiscard]] bool has_edge(ActionId a, ActionId b) const;
  [[nodiscard]] bool overlaps(ActionId a, ActionId b) const;
  [[nodiscard]] std::size_t edge_count() const;
};

}  // namespace icecube
