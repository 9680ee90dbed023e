#include "solver/local_search.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "solver/components.hpp"

namespace icecube {

namespace {

constexpr std::size_t kNoPos = std::numeric_limits<std::size_t>::max();

/// Simulated-annealing temperature schedule: T starts at
/// kInitialTemperature and is multiplied by kCooling per proposal, floored
/// at kMinTemperature. Uphill moves of cost delta d are accepted with
/// probability exp(-d / T).
constexpr double kInitialTemperature = 1.5;
constexpr double kCooling = 0.9995;
constexpr double kMinTemperature = 0.01;
/// Maximum distance an action travels in one reinsert move.
constexpr std::size_t kReinsertWindow = 96;
/// Move-mix weights: target-overlap-guided rescue of failed actions,
/// windowed reinsertion, adjacent swap, drop-flip. A proposal picks a move
/// by a uniform draw over their sum.
constexpr double kWRescue = 0.40;
constexpr double kWReinsert = 0.30;
constexpr double kWSwap = 0.25;
constexpr double kWFlip = 0.05;
constexpr double kMoveMixTotal = kWRescue + kWReinsert + kWSwap + kWFlip;

/// Slot-keyed mixing of a per-slot fingerprint hash into the state digest.
/// XOR of these over the touched slots changes iff some slot's state
/// changed (up to the usual 2^-64 hash-collision allowance).
std::uint64_t slot_mix(std::size_t slot, std::uint64_t fp) {
  std::uint64_t state = fp ^ (0x9e3779b97f4a7c15ULL * (slot + 1));
  return splitmix64(state);
}

}  // namespace

std::uint64_t universe_state_digest(const Universe& universe) {
  std::uint64_t digest = 0;
  for (std::size_t s = 0; s < universe.size(); ++s) {
    digest ^= slot_mix(s, universe.slot_fingerprint(ObjectId(s)));
  }
  return digest;
}

LocalSearchEngine::LocalSearchEngine(const std::vector<ActionRecord>& records,
                                     const SolverGraph& graph,
                                     const Universe& initial,
                                     const LocalSearchOptions& opts,
                                     const std::uint64_t* initial_digest)
    : records_(records),
      graph_(graph),
      initial_(initial),
      opts_(opts),
      rng_(opts.seed),
      temperature_(kInitialTemperature) {
  const std::size_t n = records_.size();
  tabu_until_.assign(n, 0);
  targets_.reserve(n);
  for (const ActionRecord& rec : records_) {
    targets_.push_back(rec.action->targets());
  }

  // Greedy construction. Cycle members never become ready in the Kahn
  // order; they are frozen at the tail as permanently dropped — the sparse
  // path's counterpart of cutting them.
  GreedyOrder greedy = greedy_order(graph_);
  sched_ = std::move(greedy.sched);
  live_end_ = greedy.live_end;
  pos_.resize(n);
  dropped_ = Bitset(n);
  for (std::size_t k = 0; k < n; ++k) {
    pos_[sched_[k].index()] = k;
    if (k >= live_end_) dropped_.set(sched_[k].index());
  }

  status_.assign(n, PosStatus::kDropped);
  dropped_count_ = n;

  interval_ = opts_.checkpoint_interval != 0
                  ? opts_.checkpoint_interval
                  : std::clamp<std::size_t>(n / 128, 16, 512);
  const std::size_t slabs = n == 0 ? 1 : (n - 1) / interval_ + 1;
  checkpoints_.resize(slabs);
  digests_.assign(slabs, 0);

  // Absolute digest of the initial universe; maintained per mutation from
  // here on, so digest equality is state equality (hash convention).
  const std::uint64_t digest0 = initial_digest != nullptr
                                    ? *initial_digest
                                    : universe_state_digest(initial_);
  checkpoints_[0] = initial_.snapshot();
  ++snapshots_;
  digests_[0] = digest0;

  Undo scratch;
  resimulate(0, n, scratch);

  best_sched_ = sched_;
  best_dropped_ = dropped_;
  best_cost_ = current_cost();
}

double LocalSearchEngine::cost_of(std::size_t executed, std::size_t failed,
                                  std::size_t dropped) const {
  return -static_cast<double>(executed) +
         0.25 * static_cast<double>(failed + dropped);
}

double LocalSearchEngine::current_cost() const {
  return cost_of(executed_, failed_, dropped_count_);
}

bool LocalSearchEngine::is_tabu(ActionId id) const {
  return tabu_until_[id.index()] > accepted_;
}

void LocalSearchEngine::note_acceptance(ActionId moved_a, ActionId moved_b) {
  ++accepted_;
  if (opts_.tabu_tenure == 0) return;
  tabu_until_[moved_a.index()] = accepted_ + opts_.tabu_tenure;
  tabu_until_[moved_b.index()] = accepted_ + opts_.tabu_tenure;
}

void LocalSearchEngine::replay_executed(Universe& state, std::uint64_t& digest,
                                        ActionId id) {
  const auto& targets = targets_[id.index()];
  std::uint64_t delta = 0;
  for (ObjectId t : targets) {
    delta ^= slot_mix(t.index(), state.slot_fingerprint(t));
  }
  const bool ok = records_[id.index()].action->execute(state);
  assert(ok && "replay of an executed action must succeed");
  (void)ok;
  for (ObjectId t : targets) {
    delta ^= slot_mix(t.index(), state.slot_fingerprint(t));
  }
  digest ^= delta;
}

LocalSearchEngine::PosStatus LocalSearchEngine::simulate_at(
    Universe& state, std::uint64_t& digest, std::size_t k, ActionId id) {
  const Action& action = *records_[id.index()].action;
  ++sim_steps_;
  if (!action.precondition(state)) return PosStatus::kFailed;
  const auto& targets = targets_[id.index()];
  std::uint64_t delta = 0;
  for (ObjectId t : targets) {
    delta ^= slot_mix(t.index(), state.slot_fingerprint(t));
  }
  if (action.execute(state)) {
    for (ObjectId t : targets) {
      delta ^= slot_mix(t.index(), state.slot_fingerprint(t));
    }
    digest ^= delta;
    return PosStatus::kExecuted;
  }
  // A failing execute may have partially mutated the state (the simulator
  // discards its per-step shadow copy in this case; we owe the same clean
  // semantics). Rebuild from the checkpoint below `k`: statuses for the
  // already re-evaluated prefix of this pass are current, the rest are the
  // still-valid previous ones.
  const std::size_t c = std::min(k / interval_, checkpoints_.size() - 1);
  state = checkpoints_[c].snapshot();
  digest = digests_[c];
  for (std::size_t p = c * interval_; p < k; ++p) {
    if (status_[p] == PosStatus::kExecuted) {
      replay_executed(state, digest, sched_[p]);
    }
  }
  return PosStatus::kFailed;
}

void LocalSearchEngine::resimulate(std::size_t first_changed,
                                   std::size_t changed_end, Undo& undo) {
  undo.executed = executed_;
  undo.failed = failed_;
  undo.dropped = dropped_count_;
  const std::size_t m = sched_.size();
  ++evaluations_;
  if (m == 0) return;
  const std::size_t c0 =
      std::min(first_changed / interval_, checkpoints_.size() - 1);
  Universe state = checkpoints_[c0].snapshot();
  std::uint64_t digest = digests_[c0];
  for (std::size_t k = c0 * interval_; k < m; ++k) {
    if (k % interval_ == 0) {
      const std::size_t c = k / interval_;
      if (c != c0) {
        if (k >= changed_end && digest == digests_[c]) {
          // The state entering this checkpoint is unchanged and so is the
          // rest of the configuration: every later status replays
          // identically. Converged.
          return;
        }
        undo.checkpoints.emplace_back(c, std::move(checkpoints_[c]));
        undo.digests.emplace_back(c, digests_[c]);
        checkpoints_[c] = state.snapshot();
        ++snapshots_;
        digests_[c] = digest;
      }
    }
    const ActionId id = sched_[k];
    if (k < first_changed) {
      if (status_[k] == PosStatus::kExecuted) {
        replay_executed(state, digest, id);
      }
      continue;
    }
    PosStatus next;
    if (dropped_.test(id.index())) {
      next = PosStatus::kDropped;
    } else {
      next = simulate_at(state, digest, k, id);
    }
    if (next != status_[k]) {
      undo.statuses.emplace_back(k, status_[k]);
      switch (status_[k]) {
        case PosStatus::kExecuted: --executed_; break;
        case PosStatus::kFailed: --failed_; break;
        case PosStatus::kDropped: --dropped_count_; break;
      }
      switch (next) {
        case PosStatus::kExecuted: ++executed_; break;
        case PosStatus::kFailed: ++failed_; break;
        case PosStatus::kDropped: ++dropped_count_; break;
      }
      status_[k] = next;
    }
  }
}

void LocalSearchEngine::revert(Undo& undo) {
  for (const auto& [k, st] : undo.statuses) status_[k] = st;
  for (std::size_t i = 0; i < undo.checkpoints.size(); ++i) {
    checkpoints_[undo.checkpoints[i].first] =
        std::move(undo.checkpoints[i].second);
    digests_[undo.digests[i].first] = undo.digests[i].second;
  }
  executed_ = undo.executed;
  failed_ = undo.failed;
  dropped_count_ = undo.dropped;
}

bool LocalSearchEngine::decide(double before, double after) {
  const double delta = after - before;
  if (delta < 0.0) return true;
  const double temperature = std::max(temperature_, kMinTemperature);
  return rng_.unit() < std::exp(-delta / temperature);
}

void LocalSearchEngine::commit(double after, ActionId moved_a,
                               ActionId moved_b) {
  note_acceptance(moved_a, moved_b);
  if (after < best_cost_ - 1e-12) {
    best_cost_ = after;
    best_sched_ = sched_;
    best_dropped_ = dropped_;
    stall_ = 0;
  }
}

bool LocalSearchEngine::edge_blocks_swap(ActionId first,
                                         ActionId second) const {
  return graph_.has_edge(first, second);
}

bool LocalSearchEngine::propose_swap(Undo& undo) {
  if (live_end_ < 2) return false;
  const std::size_t i = rng_.below(live_end_ - 1);
  const ActionId a = sched_[i];
  const ActionId b = sched_[i + 1];
  if (edge_blocks_swap(a, b)) return false;
  if (is_tabu(a) || is_tabu(b)) return false;
  // Two adjacent actions with disjoint targets commute: the swap cannot
  // change any status. Skip the evaluation entirely.
  if (!graph_.overlaps(a, b)) return false;
  const double before = current_cost();
  std::swap(sched_[i], sched_[i + 1]);
  pos_[a.index()] = i + 1;
  pos_[b.index()] = i;
  resimulate(i, i + 2, undo);
  const double after = current_cost();
  if (!decide(before, after)) {
    revert(undo);
    std::swap(sched_[i], sched_[i + 1]);
    pos_[a.index()] = i;
    pos_[b.index()] = i + 1;
    return true;
  }
  commit(after, a, b);
  return true;
}

bool LocalSearchEngine::apply_reinsert(std::size_t from, std::size_t to,
                                       Undo& undo) {
  const ActionId x = sched_[from];
  const double before = current_cost();
  const std::size_t lo = std::min(from, to);
  const std::size_t hi = std::max(from, to);
  auto shift = [this](std::size_t src, std::size_t dst) {
    const ActionId moved = sched_[src];
    if (src < dst) {
      std::rotate(sched_.begin() + static_cast<std::ptrdiff_t>(src),
                  sched_.begin() + static_cast<std::ptrdiff_t>(src) + 1,
                  sched_.begin() + static_cast<std::ptrdiff_t>(dst) + 1);
    } else {
      std::rotate(sched_.begin() + static_cast<std::ptrdiff_t>(dst),
                  sched_.begin() + static_cast<std::ptrdiff_t>(src),
                  sched_.begin() + static_cast<std::ptrdiff_t>(src) + 1);
    }
    const std::size_t a = std::min(src, dst);
    const std::size_t b = std::max(src, dst);
    for (std::size_t k = a; k <= b; ++k) pos_[sched_[k].index()] = k;
    (void)moved;
  };
  shift(from, to);
  resimulate(lo, hi + 1, undo);
  const double after = current_cost();
  if (!decide(before, after)) {
    revert(undo);
    shift(to, from);
    return true;
  }
  commit(after, x, x);
  return true;
}

bool LocalSearchEngine::propose_reinsert(Undo& undo) {
  if (live_end_ < 2) return false;
  const std::size_t i = rng_.below(live_end_);
  const ActionId x = sched_[i];
  if (is_tabu(x)) return false;
  const std::size_t dist = 1 + rng_.below(kReinsertWindow);
  const bool earlier = rng_.chance(0.5);
  std::size_t j = earlier ? (i >= dist ? i - dist : 0)
                          : std::min(i + dist, live_end_ - 1);
  if (j == i) return false;
  // Clamp the destination to the D-feasible range: no predecessor of x may
  // end up after it, no successor before it.
  if (j < i) {
    for (ActionId p : graph_.preds[x.index()]) {
      const std::size_t pp = pos_[p.index()];
      if (pp < i && pp >= j) j = std::max(j, pp + 1);
    }
  } else {
    for (ActionId s : graph_.succs[x.index()]) {
      const std::size_t sp = pos_[s.index()];
      if (sp > i && sp <= j) j = std::min(j, sp - 1);
    }
  }
  if (j == i) return false;
  return apply_reinsert(i, j, undo);
}

bool LocalSearchEngine::propose_rescue(Undo& undo) {
  if (live_end_ < 2) return false;
  // Probe a bounded window for a failed action, then hop it in front of the
  // nearest earlier executed action it shares a target with — the likely
  // winner of the resource it needed.
  const std::size_t start = rng_.below(live_end_);
  const std::size_t probes = std::min<std::size_t>(64, live_end_);
  // Most failures on contended workloads are *cascades* — a dependency's
  // token never appeared, so no hop can save the action and it has no
  // executed conflict partner. Probe past those: keep scanning failed
  // actions until one is a root loser, i.e. has an earlier *executed*
  // overlap partner. Hop in front of the earliest such partner: for a
  // capacity-limited cell that is the winner that starved it (a nearer
  // partner may have executed, but it wasn't first to consume). The hop is
  // unbounded: a far one re-simulates a long suffix, which the move and
  // wall-clock budgets pay for.
  std::size_t i = kNoPos;
  std::size_t j = kNoPos;
  for (std::size_t o = 0; o < probes && j == kNoPos; ++o) {
    const std::size_t k = (start + o) % live_end_;
    if (k == 0 || status_[k] != PosStatus::kFailed) continue;
    const ActionId cand = sched_[k];
    if (is_tabu(cand)) continue;
    for (ActionId ov : graph_.overlap_lists[cand.index()]) {
      const std::size_t op = pos_[ov.index()];
      if (op >= k) continue;
      if (status_[op] != PosStatus::kExecuted) continue;
      if (j == kNoPos || op < j) j = op;
    }
    if (j != kNoPos) i = k;
  }
  if (i == kNoPos) return false;
  const ActionId x = sched_[i];
  for (ActionId p : graph_.preds[x.index()]) {
    const std::size_t pp = pos_[p.index()];
    if (pp < i && pp >= j) j = std::max(j, pp + 1);
  }
  if (j == i) return false;
  return apply_reinsert(i, j, undo);
}

bool LocalSearchEngine::propose_flip(Undo& undo) {
  if (live_end_ == 0) return false;
  const std::size_t i = rng_.below(live_end_);
  const ActionId x = sched_[i];
  if (is_tabu(x)) return false;
  const double before = current_cost();
  const bool was_dropped = dropped_.test(x.index());
  if (was_dropped) {
    dropped_.reset(x.index());
  } else {
    dropped_.set(x.index());
  }
  resimulate(i, i + 1, undo);
  const double after = current_cost();
  if (!decide(before, after)) {
    revert(undo);
    if (was_dropped) {
      dropped_.set(x.index());
    } else {
      dropped_.reset(x.index());
    }
    return true;
  }
  commit(after, x, x);
  return true;
}

bool LocalSearchEngine::step() {
  if (opts_.stall_moves > 0 && stall_ >= opts_.stall_moves) return false;
  ++proposals_;
  ++stall_;
  temperature_ = std::max(temperature_ * kCooling, kMinTemperature);
  double pick = rng_.unit() * kMoveMixTotal;
  Undo undo;
  if ((pick -= kWRescue) < 0.0) {
    (void)propose_rescue(undo);
  } else if ((pick -= kWReinsert) < 0.0) {
    (void)propose_reinsert(undo);
  } else if ((pick -= kWSwap) < 0.0) {
    (void)propose_swap(undo);
  } else {
    (void)propose_flip(undo);
  }
  return true;
}

bool LocalSearchEngine::run(std::uint64_t max_proposals,
                            const Deadline& deadline,
                            std::uint64_t max_sim_steps) {
  while (proposals_ < max_proposals) {
    if (deadline.expired() || sim_steps_ >= max_sim_steps) return true;
    if (!step()) return false;
  }
  return false;
}

namespace {

/// Replays a (permutation, drop-set) configuration from `initial` without
/// per-action snapshots — an O(n²) slot-copy cost at 50k actions. A
/// precondition failure never mutates; the rare execute failure *after* a
/// passing precondition may leave a partial mutation, so that path rebuilds
/// the state by replaying the executed prefix (actions are deterministic,
/// the replay cannot fail).
void replay_config(const std::vector<ActionRecord>& records,
                   const Universe& initial,
                   const std::vector<ActionId>& sched, const Bitset& dropped,
                   std::vector<ActionId>& executed,
                   std::vector<ActionId>& skipped, Universe& final_state) {
  Universe state = initial.snapshot();
  for (ActionId id : sched) {
    if (dropped.test(id.index())) {
      skipped.push_back(id);
      continue;
    }
    const Action& action = *records[id.index()].action;
    if (!action.precondition(state)) {
      skipped.push_back(id);
      continue;
    }
    if (action.execute(state)) {
      executed.push_back(id);
      continue;
    }
    state = initial.snapshot();
    for (ActionId e : executed) {
      const Action& ea = *records[e.index()].action;
      const bool ok = ea.precondition(state) && ea.execute(state);
      assert(ok && "deterministic prefix replay failed");
      (void)ok;
    }
    skipped.push_back(id);
  }
  final_state = std::move(state);
}

}  // namespace

double LocalSearchEngine::full_replay_cost() const {
  std::vector<ActionId> executed;
  std::vector<ActionId> skipped;
  Universe final_state;
  replay_config(records_, initial_, sched_, dropped_, executed, skipped,
                final_state);
  return cost_of(executed.size(), skipped.size(), 0);
}

Outcome solve_decomposed(const SolveContext& ctx, bool allow_moves,
                         SearchStats& stats) {
  const std::vector<ActionRecord>& records = *ctx.records;
  const std::uint64_t digest0 = universe_state_digest(*ctx.initial);

  Universe working = ctx.initial->snapshot();
  std::vector<ComponentSolution> solved;
  solved.reserve(ctx.components->size());
  for (const std::vector<ActionId>& members : *ctx.components) {
    // Past the deadline the remaining components degrade to their greedy
    // construction — still a complete outcome.
    const bool moves_now = allow_moves && !ctx.deadline->expired();
    stats.hit_limit |= allow_moves && !moves_now;
    const SubProblem sub = extract_subproblem(records, *ctx.graph, members);
    solved.push_back(solve_component(sub, *ctx.initial, working, *ctx.options,
                                     moves_now, digest0, *ctx.deadline,
                                     stats));
  }

  std::vector<const ComponentSolution*> parts;
  parts.reserve(solved.size());
  for (const ComponentSolution& s : solved) parts.push_back(&s);
  std::vector<ActionId> sequence;
  std::vector<RunStatus> status;
  merge_solutions(parts, records, sequence, status);

  Outcome out;
  for (std::size_t k = 0; k < sequence.size(); ++k) {
    if (status[k] == RunStatus::kExecuted) {
      out.schedule.push_back(sequence[k]);
    } else {
      out.skipped.push_back(sequence[k]);
    }
  }
  out.final_state = std::move(working);
  out.complete = true;
  return out;
}

bool offer_outcome(const SolveContext& ctx, Outcome out, Selection& selection,
                   SearchStats& stats) {
  out.cost = ctx.policy->cost(out);
  const bool keep_going = ctx.policy->on_outcome(out);
  if (selection.offer(std::move(out))) {
    stats.time_to_best = ctx.clock->seconds();
    stats.schedules_to_best = stats.schedules_completed;
  }
  return keep_going;
}

void LocalSearchBackend::solve(const SolveContext& ctx, Selection& selection,
                               SearchStats& stats) {
  offer_outcome(ctx, solve_decomposed(ctx, /*allow_moves=*/true, stats),
                selection, stats);
}

void GreedyBackend::solve(const SolveContext& ctx, Selection& selection,
                          SearchStats& stats) {
  offer_outcome(ctx, solve_decomposed(ctx, /*allow_moves=*/false, stats),
                selection, stats);
}

}  // namespace icecube
