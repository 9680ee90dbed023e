#include "core/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace icecube {

namespace {

Bitset cutset_bits(const Cutset& cutset, std::size_t n) {
  Bitset bits(n);
  for (ActionId a : cutset.actions) bits.set(a.index());
  return bits;
}

}  // namespace

Simulator::Simulator(const std::vector<ActionRecord>& records,
                     const Relations& relations, const SolverGraph& graph,
                     const ReconcilerOptions& options, Policy& policy,
                     Selection& selection, SearchStats& stats,
                     const Stopwatch& clock, Deadline deadline)
    : records_(records),
      relations_(relations),
      graph_(graph),
      options_(options),
      policy_(policy),
      selection_(selection),
      stats_(stats),
      clock_(clock),
      deadline_(deadline),
      done_(records.size()) {
  if (options.strict_pick_seed != 0) {
    strict_rng_.emplace(options.strict_pick_seed);
  }
}

std::uint64_t Simulator::causal_key(ActionId action) const {
  std::uint64_t state = 0x9d3f5ca1b7e42681ULL ^ action.value();
  std::uint64_t hash = splitmix64(state);
  for (ActionId executed : prefix_) {
    if (graph_.overlaps(action, executed)) {
      state ^= (hash << 1) ^ executed.value();
      hash ^= splitmix64(state);
    }
  }
  return hash;
}

void Simulator::start(const Cutset& cutset, const Universe& initial) {
  assert(records_.size() == relations_.size());
  assert(records_.size() == graph_.n);
  clone_mark_ = Universe::thread_counters();
  known_failures_.clear();  // keys are relative to this cutset's searches
  const Bitset excluded = cutset_bits(cutset, records_.size());
  scheduler_.emplace(relations_, options_.heuristic, options_.b_rule,
                     excluded, options_.prune_equivalent);
  done_ = excluded;
  prefix_.clear();
  skipped_.clear();
  cut_actions_ = cutset.actions;
  stack_.clear();
  stop_ = false;
  if (!push_node(initial, ActionId())) {
    ++stats_.prefix_prunes;  // the application pruned the root
  }
}

bool Simulator::run(const Cutset& cutset, const Universe& initial) {
  start(cutset, initial);
  (void)step(UINT64_MAX);
  return !stop_;
}

void Simulator::fill_candidates(Frame& frame) {
  frame.candidates = scheduler_->successors(
      done_, last_scheduled(), frame.extra_deps,
      strict_rng_ ? &*strict_rng_ : nullptr);
  std::erase_if(frame.candidates,
                [&frame](ActionId a) { return frame.tried.test(a.index()); });
  frame.next = 0;
}

Simulator::Frame Simulator::acquire_frame() {
  if (spare_frames_.empty()) {
    Frame frame;
    frame.tried = Bitset(records_.size());
    return frame;
  }
  Frame frame = std::move(spare_frames_.back());
  spare_frames_.pop_back();
  // Vectors keep their capacity and the bitset its words: in steady state
  // a recycled frame needs no heap allocation at all.
  frame.candidates.clear();
  frame.extra_deps.clear();
  frame.tried.clear();
  frame.next = 0;
  frame.skips = 0;
  frame.explored_child = false;
  frame.recompute = false;
  frame.via = ActionId();
  return frame;
}

bool Simulator::push_node(Universe state, ActionId via) {
  const PrefixView view{prefix_, skipped_};
  if (!policy_.keep_prefix(view, state)) return false;
  Frame frame = acquire_frame();
  frame.state = std::move(state);
  frame.via = via;
  policy_.extra_dependencies(view, frame.extra_deps);
  fill_candidates(frame);
  policy_.order_candidates(view, frame.candidates);
  stack_.push_back(std::move(frame));
  return true;
}

void Simulator::pop_node() {
  Frame& frame = stack_.back();
  for (; frame.skips > 0; --frame.skips) {
    done_.reset(skipped_.back().index());
    skipped_.pop_back();
  }
  if (frame.via.valid()) {
    assert(!prefix_.empty() && prefix_.back() == frame.via);
    prefix_.pop_back();
    done_.reset(frame.via.index());
  }
  Frame spare = std::move(stack_.back());
  stack_.pop_back();
  // Release the universe before parking the frame: a spare frame keeping
  // slot references alive would force detach-clones in live ancestors.
  spare.state = Universe();
  spare_frames_.push_back(std::move(spare));
}

void Simulator::flush_clone_counters() {
  const Universe::CloneCounters& now = Universe::thread_counters();
  stats_.object_clones += now.object_clones - clone_mark_.object_clones;
  stats_.clones_avoided += now.clones_avoided - clone_mark_.clones_avoided;
  stats_.bytes_cloned += now.bytes_cloned - clone_mark_.bytes_cloned;
  clone_mark_ = now;
}

bool Simulator::step(std::uint64_t schedule_budget) {
  std::uint64_t terminals = 0;
  while (!stack_.empty() && !stop_ && terminals < schedule_budget) {
    if (deadline_.expired()) {
      stats_.hit_limit = true;
      stop_ = true;
      break;
    }

    Frame& frame = stack_.back();
    if (frame.recompute) {
      fill_candidates(frame);
      const PrefixView view{prefix_, skipped_};
      policy_.order_candidates(view, frame.candidates);
      frame.recompute = false;
    }
    if (frame.next >= frame.candidates.size()) {
      if (!frame.explored_child) {
        record_outcome(frame.state);
        ++terminals;
      }
      pop_node();
      continue;
    }

    const ActionId cand = frame.candidates[frame.next++];
    frame.tried.set(cand.index());

    ++stats_.sim_steps;
    if (stats_.sim_steps > options_.limits.max_steps) {
      stats_.hit_limit = true;
      stop_ = true;
      break;
    }

    const Action& action = *records_[cand.index()].action;
    FailureKind failure = FailureKind::kPrecondition;
    Universe shadow;
    bool ok = false;
    std::uint64_t key = 0;
    bool memoized = false;
    if (options_.memoize_failures) {
      key = causal_key(cand);
      if (const auto it = known_failures_.find(key);
          it != known_failures_.end()) {
        // §6: this action fails identically after any prefix with the same
        // causal context; skip the re-simulation.
        failure = it->second;
        memoized = true;
        ++stats_.memoized_failures;
      }
    }
    if (!memoized) {
      if (!action.precondition(frame.state)) {
        ++stats_.precondition_failures;
      } else {
        shadow = frame.state;  // shadow copy (§3.4)
        ++stats_.state_clones;
        if (action.execute(shadow)) {
          ok = true;
        } else {
          ++stats_.execution_failures;
          failure = FailureKind::kExecution;
        }
      }
      if (!ok && options_.memoize_failures) {
        known_failures_.emplace(key, failure);
      }
    }

    if (!ok) {
      const PrefixView view{prefix_, skipped_};
      policy_.on_failure(view, frame.state, cand, failure);
      if (options_.failure_mode == FailureMode::kSkipAction) {
        // Drop the action for the remainder of this subtree; re-derive the
        // candidates (the skip may unlock D-successors).
        done_.set(cand.index());
        skipped_.push_back(cand);
        ++frame.skips;
        frame.recompute = true;
      }
      continue;  // AbortBranch: siblings still explored
    }

    done_.set(cand.index());
    prefix_.push_back(cand);
    frame.explored_child = true;
    if (!push_node(std::move(shadow), cand)) {
      // Application pruned the child prefix: unwind the action.
      ++stats_.prefix_prunes;
      prefix_.pop_back();
      done_.reset(cand.index());
    }
  }
  flush_clone_counters();
  return !stack_.empty() && !stop_;
}

void Simulator::record_outcome(const Universe& state) {
  const bool complete = done_.count() == records_.size();
  if (complete) {
    ++stats_.schedules_completed;
  } else {
    ++stats_.dead_ends;
  }

  const bool record = complete || options_.record_partial_outcomes;
  if (record) {
    Outcome outcome;
    outcome.schedule = prefix_;
    outcome.skipped = skipped_;
    outcome.cutset = cut_actions_;
    // Borrowed view: the policy cost function may read the final state, but
    // the keep-K gate below rejects most outcomes — the real (per-mode)
    // state copy is materialised only for survivors.
    outcome.final_state = state.snapshot();
    outcome.complete = complete;
    outcome.cost = policy_.cost(outcome);

    if (!policy_.on_outcome(outcome)) stop_ = true;
    const double cost = outcome.cost;
    const std::size_t n_skipped = outcome.skipped.size();
    if (selection_.would_keep(outcome)) {
      outcome.final_state = state;
      if (selection_.offer(std::move(outcome))) {
        stats_.time_to_best = clock_.seconds();
        stats_.schedules_to_best = stats_.schedules_explored();
        if (improvements_ != nullptr) {
          improvements_->push_back({cost, complete, n_skipped,
                                    stats_.schedules_explored(),
                                    clock_.seconds()});
        }
      }
    }
  }

  if (stats_.schedules_explored() >= options_.limits.max_schedules) {
    stats_.hit_limit = true;
    stop_ = true;
  }
}

}  // namespace icecube
