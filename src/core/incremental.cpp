#include "core/incremental.hpp"

#include <algorithm>

namespace icecube {

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
  stage_ = build_constraint_stage(initial_, flatten(logs_), /*dense=*/true);
  cutsets_ = select_cutsets(stage_.relations, *policy_, stats_);

  if (!open_next_cutset()) done_ = true;
}

IncrementalReconciler::~IncrementalReconciler() = default;

bool IncrementalReconciler::open_next_cutset() {
  while (next_cutset_ < cutsets_.size()) {
    const Cutset& cutset = cutsets_[next_cutset_++];
    if (cutset.empty()) {
      working_ = stage_.relations;
    } else {
      Bitset removed(stage_.records.size());
      for (ActionId a : cutset.actions) removed.set(a.index());
      working_ = stage_.relations.restricted(removed);
    }
    simulator_.emplace(stage_.records, working_, stage_.graph, options_,
                       *policy_, selection_, stats_, clock_, deadline_);
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
