#include "core/parallel_driver.hpp"

#include <atomic>
#include <cstdint>
#include <utility>

#include "core/simulator.hpp"
#include "util/bitset.hpp"

namespace icecube {

namespace {

/// Everything one cutset's private search produced.
struct CutsetRun {
  SearchStats stats;
  std::vector<Outcome> kept;             // local Selection, best first
  std::vector<ImprovementEvent> events;  // local best-so-far trace
  bool stopped = false;  ///< simulator stop (limit / policy)
  bool aborted = false;  ///< cancelled early; results are invalid
};

/// Lock-free fetch-min over the "earliest stopped cutset" index.
void fetch_min(std::atomic<std::size_t>& target, std::size_t value) {
  std::size_t current = target.load(std::memory_order_relaxed);
  while (value < current &&
         !target.compare_exchange_weak(current, value,
                                       std::memory_order_acq_rel)) {
  }
}

/// Runs one cutset's search to completion against private selection/stats.
/// `stop_index` (when non-null) is the cancellation channel: once some
/// earlier cutset has stopped the whole search, this cutset's results can
/// never be merged, so the worker gives up between step chunks. The search
/// itself is deterministic — cancellation only ever discards work whose
/// results would be discarded at merge anyway.
CutsetRun search_cutset(const std::vector<ActionRecord>& records,
                        const Relations& relations, const SolverGraph& graph,
                        const Universe& initial,
                        const ReconcilerOptions& options, Policy& policy,
                        const Cutset& cutset, const Deadline& deadline,
                        const Stopwatch& clock,
                        std::atomic<std::size_t>* stop_index, std::size_t k) {
  CutsetRun run;
  Relations working;
  const Relations* active = &relations;
  if (!cutset.empty()) {
    Bitset removed(records.size());
    for (ActionId a : cutset.actions) removed.set(a.index());
    working = relations.restricted(removed);
    active = &working;
  }
  Selection local(policy, options.keep_outcomes);
  Simulator simulator(records, *active, graph, options, policy, local,
                      run.stats, clock, deadline);
  simulator.set_improvement_log(&run.events);
  simulator.start(cutset, initial);
  constexpr std::uint64_t kPollChunk = 512;  // cancellation poll granularity
  while (simulator.step(stop_index != nullptr ? kPollChunk : UINT64_MAX)) {
    if (stop_index != nullptr &&
        stop_index->load(std::memory_order_acquire) < k) {
      run.aborted = true;
      return run;
    }
  }
  run.stopped = simulator.stopped();
  run.kept = local.take();
  return run;
}

/// Selection::better on the fields an ImprovementEvent carries.
bool better_event(const ImprovementEvent& a, const ImprovementEvent& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.complete != b.complete) return a.complete;
  if (a.skipped != b.skipped) return a.skipped < b.skipped;
  return false;
}

}  // namespace

void run_cutsets_parallel(const std::vector<ActionRecord>& records,
                          const Relations& relations, const SolverGraph& graph,
                          const Universe& initial,
                          const ReconcilerOptions& options, Policy& policy,
                          const std::vector<Cutset>& cutsets,
                          const Deadline& deadline, const Stopwatch& clock,
                          ThreadPool& pool, Selection& selection,
                          SearchStats& stats) {
  const std::size_t count = cutsets.size();
  std::vector<CutsetRun> runs(count);
  std::atomic<std::size_t> stop_index{count};
  parallel_for_each(&pool, count, [&](std::size_t k) {
    runs[k] = search_cutset(records, relations, graph, initial, options,
                            policy, cutsets[k], deadline, clock, &stop_index,
                            k);
    if (runs[k].stopped) fetch_min(stop_index, k);
  });

  // Deterministic merge, in cutset order. Each worker searched under the
  // *global* limits (the most any cutset could be allowed); here the actual
  // per-cutset budget is carved the way the sequential loop's shared
  // counters would have carved it, and any cutset that overshot its carve is
  // re-run under the exact carved limits. The invariants mirrored from the
  // sequential engine:
  //  - record_outcome stops the run once total explored >= max_schedules
  //    (the terminal that reaches the cap is still recorded);
  //  - the step loop stops once total sim_steps exceeds max_steps;
  //  - a stopped simulator (limit, policy) ends the loop and later cutsets
  //    never run.
  const std::uint64_t max_schedules = options.limits.max_schedules;
  const std::uint64_t max_steps = options.limits.max_steps;
  std::uint64_t explored = 0;
  std::uint64_t steps = 0;
  ImprovementEvent best{};
  bool have_best = false;

  for (std::size_t k = 0; k < count; ++k) {
    const std::uint64_t budget_schedules = max_schedules - explored;  // >= 1
    const std::uint64_t budget_steps = max_steps - steps;
    CutsetRun rerun;
    CutsetRun* run = &runs[k];
    if (run->aborted || run->stats.schedules_explored() > budget_schedules ||
        run->stats.sim_steps > budget_steps) {
      ReconcilerOptions carved = options;
      carved.limits.max_schedules = budget_schedules;
      carved.limits.max_steps = budget_steps;
      rerun = search_cutset(records, relations, graph, initial, carved,
                            policy, cutsets[k], deadline, clock, nullptr, k);
      run = &rerun;
    }

    // Stable keep-K merge: each local Selection saw exactly the offer stream
    // the shared sequential Selection would have seen from this cutset, and
    // re-offering the survivors best-first (equal outcomes insert after
    // existing ones) reproduces the global top-K with sequential tie order.
    for (Outcome& outcome : run->kept) {
      (void)selection.offer(std::move(outcome));
    }
    // Replay the best-so-far bookkeeping: local improvements are a superset
    // of the global ones, filtered here against the running global best.
    for (const ImprovementEvent& event : run->events) {
      if (!have_best || better_event(event, best)) {
        have_best = true;
        best = event;
        stats.schedules_to_best = explored + event.schedules_explored;
        stats.time_to_best = event.seconds;
      }
    }

    stats.accumulate(run->stats);
    explored += run->stats.schedules_explored();
    steps += run->stats.sim_steps;
    if (explored >= max_schedules) {
      stats.hit_limit = true;
      break;
    }
    if (run->stopped) break;
  }
}

}  // namespace icecube
