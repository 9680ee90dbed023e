#include "solver/graph.hpp"

#include <algorithm>

namespace icecube {

namespace {

bool sorted_contains(const std::vector<ActionId>& list, ActionId id) {
  return std::binary_search(list.begin(), list.end(), id);
}

}  // namespace

bool SolverGraph::has_edge(ActionId a, ActionId b) const {
  return sorted_contains(succs[a.index()], b);
}

bool SolverGraph::overlaps(ActionId a, ActionId b) const {
  return sorted_contains(overlap_lists[a.index()], b);
}

std::size_t SolverGraph::edge_count() const {
  std::size_t total = 0;
  for (const auto& list : succs) total += list.size();
  return total;
}

}  // namespace icecube
