#include "core/constraint_builder.hpp"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <numeric>
#include <sstream>
#include <utility>

#include "solver/components.hpp"

namespace icecube {

namespace {

/// Common targets of two actions (both vectors are tiny; quadratic scan).
std::vector<ObjectId> common_targets(const Action& a, const Action& b) {
  std::vector<ObjectId> out;
  const auto ta = a.targets();
  const auto tb = b.targets();
  for (ObjectId x : ta) {
    if (std::find(tb.begin(), tb.end(), x) != tb.end() &&
        std::find(out.begin(), out.end(), x) == out.end()) {
      out.push_back(x);
    }
  }
  return out;
}

/// Rules 2–3 of §2.3 for the direction "a before b", given the shared-target
/// set (rule 1 is the caller's: empty `shared` ⇒ safe). The iteration order
/// of `shared` does not affect the result — `most_constraining` is a
/// commutative max — only how many `order()` calls the early stop saves.
Constraint evaluate_direction(const Universe& universe, const ActionRecord& a,
                              const ActionRecord& b,
                              const std::vector<ObjectId>& shared,
                              std::uint64_t& order_calls) {
  if (shared.empty()) return Constraint::kSafe;
  if (a.before_in_log(b)) return Constraint::kSafe;
  const LogRelation rel =
      a.same_log(b) ? LogRelation::kSameLog : LogRelation::kAcrossLogs;
  Constraint result = Constraint::kSafe;
  for (ObjectId target : shared) {
    ++order_calls;
    result = most_constraining(
        result, universe.at(target).order(*a.action, *b.action, rel));
    if (result == Constraint::kUnsafe) break;  // cannot get worse
  }
  return result;
}

}  // namespace

Constraint evaluate_constraint(const Universe& universe, const ActionRecord& a,
                               const ActionRecord& b) {
  std::uint64_t order_calls = 0;
  return evaluate_direction(universe, a, b,
                            common_targets(*a.action, *b.action), order_calls);
}

ConstraintMatrix build_constraints_dense(
    const Universe& universe, const std::vector<ActionRecord>& records,
    ConstraintBuildStats* stats) {
  ConstraintBuildStats local;
  ConstraintMatrix matrix(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t j = 0; j < records.size(); ++j) {
      if (i == j) continue;  // diagonal is meaningless; left safe
      ++local.pairs_evaluated;
      ++local.target_set_builds;
      const auto shared =
          common_targets(*records[i].action, *records[j].action);
      matrix.set(ActionId(i), ActionId(j),
                 evaluate_direction(universe, records[i], records[j], shared,
                                    local.order_calls));
    }
  }
  if (stats != nullptr) *stats = local;
  return matrix;
}

IncrementalConstraintGraph::IncrementalConstraintGraph(
    const Universe& universe)
    : universe_(&universe), by_target_(universe.size()) {}

IncrementalConstraintGraph IncrementalConstraintGraph::build(
    const Universe& universe, std::vector<ActionRecord> records,
    ConstraintMatrix* dense) {
  IncrementalConstraintGraph graph(universe);
  if (dense != nullptr) *dense = ConstraintMatrix(records.size());
  graph.dense_ = dense;
  graph.records_.reserve(records.size());
  for (ActionRecord& rec : records) {
    graph.add_action(std::move(rec.action), rec.log, rec.position);
  }
  graph.dense_ = nullptr;
  return graph;
}

std::uint32_t IncrementalConstraintGraph::find(std::uint32_t v) {
  while (parent_[v] != v) {
    parent_[v] = parent_[parent_[v]];  // path halving
    v = parent_[v];
  }
  return v;
}

void IncrementalConstraintGraph::unite(std::uint32_t a, std::uint32_t b) {
  a = find(a);
  b = find(b);
  if (a == b) return;
  // Splice the smaller member chain onto the larger — O(1), no copies.
  if (comp_size_[a] < comp_size_[b]) std::swap(a, b);
  member_next_[member_tail_[a]] = member_head_[b];
  member_tail_[a] = member_tail_[b];
  comp_size_[a] += comp_size_[b];
  parent_[b] = a;
  --components_;
}

const std::vector<ObjectId>& IncrementalConstraintGraph::shared_in_order_of(
    ActionId other, const std::vector<ObjectId>& shared) {
  if (shared.size() < 2) return shared;
  reordered_.clear();
  for (std::uint32_t k = target_begin_[other.index()];
       k < target_begin_[other.index() + 1]; ++k) {
    if (std::find(shared.begin(), shared.end(), target_list_[k]) !=
        shared.end()) {
      reordered_.push_back(target_list_[k]);
    }
  }
  return reordered_;
}

ActionId IncrementalConstraintGraph::add_action(
    ActionPtr action, LogId log, std::size_t position,
    std::vector<ActionId>* merged) {
  const std::uint32_t id = static_cast<std::uint32_t>(records_.size());
  records_.push_back(ActionRecord{std::move(action), log, position});
  const ActionRecord& rb = records_.back();

  graph_.n = records_.size();
  graph_.preds.emplace_back();
  graph_.succs.emplace_back();
  graph_.overlap_lists.emplace_back();
  parent_.push_back(id);
  member_head_.push_back(id);
  member_tail_.push_back(id);
  member_next_.push_back(kNoMember);
  comp_size_.push_back(1);
  paired_stamp_.push_back(0);
  pair_slot_.push_back(0);
  ++components_;

  // Phase 1: probe the inverted index. Every known action sharing a target
  // is one unordered pair (stamp-deduplicated across targets), and the
  // pair's shared-target set falls out of the probe itself: the second and
  // later shared objects land on the pair's pool slot instead of forcing a
  // per-direction quadratic re-scan of both target lists. The new action's
  // target list — a virtual call returning a fresh vector — is extracted
  // exactly once per arrival.
  pair_others_.clear();
  partner_roots_.clear();
  for (ObjectId t : rb.action->targets()) {
    assert(t.index() < by_target_.size() &&
           "action targets an object unknown to the universe");
    // A target listed twice was probed and indexed by its first occurrence;
    // probing again would pair the action with itself.
    if (!by_target_[t.index()].empty() &&
        by_target_[t.index()].back().value() == id) {
      continue;
    }
    target_list_.push_back(t);
    if (merged != nullptr && !by_target_[t.index()].empty()) {
      // Every action indexed under one target is already in one component,
      // and the list is in ascending id order: its front is the smallest
      // partner this target contributes, and its root is pre-arrival (no
      // union has run yet).
      const std::uint32_t first = by_target_[t.index()].front().value();
      partner_roots_.emplace_back(first, find(first));
    }
    for (ActionId other : by_target_[t.index()]) {
      if (paired_stamp_[other.index()] == id + 1) {
        pair_targets_pool_[pair_slot_[other.index()]].push_back(t);
        continue;
      }
      paired_stamp_[other.index()] = id + 1;
      const auto slot = static_cast<std::uint32_t>(pair_others_.size());
      if (slot == pair_targets_pool_.size()) pair_targets_pool_.emplace_back();
      pair_slot_[other.index()] = slot;
      pair_targets_pool_[slot].clear();
      pair_targets_pool_[slot].push_back(t);
      pair_others_.push_back(other);
    }
    by_target_[t.index()].push_back(ActionId(id));
  }
  target_begin_.push_back(static_cast<std::uint32_t>(target_list_.size()));

  if (merged != nullptr) {
    // At most one entry per target, so the sort and the linear dedupe are
    // cheap.
    std::sort(partner_roots_.begin(), partner_roots_.end());
    merged->clear();
    for (const auto& [partner, root] : partner_roots_) {
      if (std::find(merged->begin(), merged->end(), ActionId(root)) ==
          merged->end()) {
        merged->push_back(ActionId(root));
      }
    }
  }

  // Phase 2: evaluate each pair over its shared set. A same-log pair is
  // safe in its recorded direction (rule 2), so only log-reversing
  // directions run. Each direction scans the shared targets in its first
  // action's target order, as `build_constraints_dense` does, so the early
  // stop at `unsafe` makes the same `order()` calls.
  for (std::size_t k = 0; k < pair_others_.size(); ++k) {
    const ActionId other = pair_others_[k];
    const std::vector<ObjectId>& shared = pair_targets_pool_[k];
    const ActionRecord& ra = records_[other.index()];
    // `other` < `id`: the pair's (lo, hi) orientation.
    graph_.overlap_lists[other.index()].push_back(ActionId(id));
    graph_.overlap_lists[id].push_back(other);
    if (!ra.before_in_log(rb)) {
      ++stats_.pairs_evaluated;
      const Constraint c =
          evaluate_direction(*universe_, ra, rb,
                             shared_in_order_of(other, shared),
                             stats_.order_calls);
      if (dense_ != nullptr) dense_->set(other, ActionId(id), c);
      if (c == Constraint::kUnsafe) {
        graph_.succs[id].push_back(other);
        graph_.preds[other.index()].push_back(ActionId(id));
      }
    }
    if (!rb.before_in_log(ra)) {
      ++stats_.pairs_evaluated;
      const Constraint c = evaluate_direction(*universe_, rb, ra, shared,
                                              stats_.order_calls);
      if (dense_ != nullptr) dense_->set(ActionId(id), other, c);
      if (c == Constraint::kUnsafe) {
        graph_.succs[other.index()].push_back(ActionId(id));
        graph_.preds[id].push_back(other);
      }
    }
    ++stats_.target_set_builds;
    unite(id, other.value());
  }

  // Existing actions' lists stay sorted (the new id is their maximum); the
  // new action's lists collected targets in group order, so sort them.
  std::sort(graph_.preds[id].begin(), graph_.preds[id].end());
  std::sort(graph_.succs[id].begin(), graph_.succs[id].end());
  std::sort(graph_.overlap_lists[id].begin(),
            graph_.overlap_lists[id].end());

  dirty_roots_.push_back(find(id));
  return ActionId(id);
}

ActionId IncrementalConstraintGraph::component_root(ActionId id) {
  return ActionId(find(id.value()));
}

const std::vector<ActionId>& IncrementalConstraintGraph::component_members(
    ActionId root) {
  assert(find(root.value()) == root.value() && "not a current root");
  members_scratch_.clear();
  members_scratch_.reserve(comp_size_[root.index()]);
  for (std::uint32_t v = member_head_[root.index()]; v != kNoMember;
       v = member_next_[v]) {
    members_scratch_.push_back(ActionId(v));
  }
  return members_scratch_;
}

std::vector<std::vector<ActionId>> IncrementalConstraintGraph::components() {
  // Walking ids in priority order makes every member list priority-sorted
  // and opens components in order of their minimum priority.
  std::vector<std::uint32_t> order(records_.size());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return stream_priority(records_[a]) <
                     stream_priority(records_[b]);
            });
  std::vector<std::uint32_t> slot(records_.size(), kNoMember);
  std::vector<std::vector<ActionId>> out;
  out.reserve(components_);
  for (std::uint32_t v : order) {
    const std::uint32_t root = find(v);
    if (slot[root] == kNoMember) {
      slot[root] = static_cast<std::uint32_t>(out.size());
      out.emplace_back().reserve(comp_size_[root]);
    }
    out[slot[root]].push_back(ActionId(v));
  }
  return out;
}

std::vector<ActionId> IncrementalConstraintGraph::take_dirty_roots() {
  std::vector<ActionId> roots;
  roots.reserve(dirty_roots_.size());
  for (std::uint32_t raw : dirty_roots_) {
    roots.push_back(ActionId(find(raw)));
  }
  dirty_roots_.clear();
  std::sort(roots.begin(), roots.end());
  roots.erase(std::unique(roots.begin(), roots.end()), roots.end());
  return roots;
}

std::string render_matrix(const ConstraintMatrix& matrix,
                          const std::vector<std::string>& labels) {
  std::size_t width = 6;  // at least "unsafe"
  for (const auto& l : labels) width = std::max(width, l.size());
  width += 2;

  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(width)) << "a \\ b";
  for (const auto& l : labels) {
    os << std::setw(static_cast<int>(width)) << l;
  }
  os << '\n';
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    os << std::setw(static_cast<int>(width)) << labels[i];
    for (std::size_t j = 0; j < matrix.size(); ++j) {
      if (i == j) {
        os << std::setw(static_cast<int>(width)) << "-";
      } else {
        os << std::setw(static_cast<int>(width))
           << to_string(matrix.at(ActionId(i), ActionId(j)));
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace icecube
