#include "core/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "solver/components.hpp"

namespace icecube {

IncrementalConstraintGraph::IncrementalConstraintGraph(
    const Universe& universe)
    : universe_(&universe), by_target_(universe.size()) {}

IncrementalConstraintGraph IncrementalConstraintGraph::build(
    const Universe& universe, const std::vector<ActionRecord>& records) {
  IncrementalConstraintGraph graph(universe);
  for (const ActionRecord& rec : records) {
    graph.add_action(rec.action, rec.log, rec.position);
  }
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
  const std::vector<ObjectId> targets = rb.action->targets();
  for (ObjectId t : targets) {
    assert(t.index() < by_target_.size() &&
           "action targets an object unknown to the universe");
    // A target listed twice was probed and indexed by its first occurrence;
    // probing again would pair the action with itself.
    if (!by_target_[t.index()].empty() &&
        by_target_[t.index()].back().value() == id) {
      continue;
    }
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

  // Phase 2: evaluate each pair over its precomputed shared set, with the
  // dense builder's direction rules — a same-log pair is safe in its
  // recorded direction, so only log-reversing directions run.
  for (std::size_t k = 0; k < pair_others_.size(); ++k) {
    const ActionId other = pair_others_[k];
    const std::vector<ObjectId>& shared = pair_targets_pool_[k];
    const ActionRecord& ra = records_[other.index()];
    // `other` < `id`: the pair's (lo, hi) orientation.
    graph_.overlap_lists[other.index()].push_back(ActionId(id));
    graph_.overlap_lists[id].push_back(other);
    const bool a_first = ra.before_in_log(rb);
    const bool b_first = rb.before_in_log(ra);
    if (!a_first) {
      ++stats_.pairs_evaluated;
      if (evaluate_constraint_over(*universe_, ra, rb, shared,
                                   stats_.order_calls) ==
          Constraint::kUnsafe) {
        graph_.succs[id].push_back(other);
        graph_.preds[other.index()].push_back(ActionId(id));
      }
    }
    if (!b_first) {
      ++stats_.pairs_evaluated;
      if (evaluate_constraint_over(*universe_, rb, ra, shared,
                                   stats_.order_calls) ==
          Constraint::kUnsafe) {
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

IncrementalReconciler::IncrementalReconciler(Universe initial,
                                             std::vector<Log> logs,
                                             ReconcilerOptions options,
                                             Policy* policy)
    : initial_(std::move(initial)),
      logs_(std::move(logs)),
      options_(options),
      policy_(policy),
      selection_(*(policy != nullptr
                       ? policy
                       : (default_policy_ = std::make_unique<Policy>()).get()),
                 options.keep_outcomes) {
  if (policy_ == nullptr) policy_ = default_policy_.get();
  initial_.set_copy_mode(options_.eager_state_copies
                             ? Universe::CopyMode::kEager
                             : Universe::CopyMode::kCopyOnWrite);
  deadline_ = Deadline::after_seconds(options_.limits.max_seconds);
  records_ = flatten(logs_);
  matrix_ = build_constraints(initial_, records_);
  relations_ = Relations::from_constraints(matrix_);
  if (options_.memoize_failures) {
    target_overlap_ = build_target_overlap(records_);
  }

  CutsetAnalysis cuts =
      find_proper_cutsets(relations_, kMaxCycles, kMaxCutsets);
  stats_.cutsets_truncated = cuts.truncated;
  policy_->select_cutsets(cuts.cutsets);
  stats_.cutset_count = cuts.cutsets.size();
  cutsets_ = std::move(cuts.cutsets);

  if (!open_next_cutset()) done_ = true;
}

IncrementalReconciler::~IncrementalReconciler() = default;

bool IncrementalReconciler::open_next_cutset() {
  while (next_cutset_ < cutsets_.size()) {
    const Cutset& cutset = cutsets_[next_cutset_++];
    if (cutset.empty()) {
      working_ = relations_;
    } else {
      Bitset removed(records_.size());
      for (ActionId a : cutset.actions) removed.set(a.index());
      working_ = relations_.restricted(removed);
    }
    simulator_.emplace(records_, working_, options_, *policy_, selection_,
                       stats_, clock_, deadline_,
                       options_.memoize_failures ? &target_overlap_ : nullptr);
    simulator_->start(cutset, initial_);
    return true;
  }
  return false;
}

IncrementalReconciler::Progress IncrementalReconciler::step(
    std::uint64_t schedule_budget) {
  while (!done_ && schedule_budget > 0) {
    const std::uint64_t before = stats_.schedules_explored();
    const bool more = simulator_->step(schedule_budget);
    const std::uint64_t used = stats_.schedules_explored() - before;
    schedule_budget -= std::min(schedule_budget, used);
    if (simulator_->stopped()) {
      done_ = true;  // a limit or the policy halted the whole search
    } else if (!more) {
      if (!open_next_cutset()) done_ = true;  // cutset exhausted; next one
    }
  }
  stats_.elapsed_seconds = clock_.seconds();
  return progress();
}

bool IncrementalReconciler::finished() const { return done_; }

IncrementalReconciler::Progress IncrementalReconciler::progress() const {
  Progress p;
  p.schedules_explored = stats_.schedules_explored();
  p.finished = done_;
  p.has_best = !selection_.empty();
  p.best_cost = selection_.best_cost();
  p.cutsets_remaining = cutsets_.size() - next_cutset_;
  return p;
}

ReconcileResult IncrementalReconciler::take_result() {
  done_ = true;
  simulator_.reset();
  stats_.elapsed_seconds = clock_.seconds();
  ReconcileResult result;
  result.stats = stats_;
  result.cutsets = cutsets_;
  result.outcomes = selection_.take();
  return result;
}

}  // namespace icecube
