#include "solver/components.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

#include "solver/local_search.hpp"

namespace icecube {

SubProblem extract_subproblem(const std::vector<ActionRecord>& records,
                              const SolverGraph& graph,
                              const std::vector<ActionId>& members) {
  SubProblem sub;
  sub.global_ids = members;
  std::sort(sub.global_ids.begin(), sub.global_ids.end(),
            [&records](ActionId a, ActionId b) {
              return stream_priority(records[a.index()]) <
                     stream_priority(records[b.index()]);
            });
  const std::size_t m = sub.global_ids.size();
  assert(m > 0);
  sub.min_priority = stream_priority(records[sub.global_ids[0].index()]);

  // Caller id → local id. A flat map would be O(n) per extraction; binary
  // search over the (small) sorted-by-priority member list keeps the cost
  // within the component. Members are not sorted by caller id, so build a
  // sorted view once.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> to_local;
  to_local.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    to_local.emplace_back(sub.global_ids[i].value(),
                          static_cast<std::uint32_t>(i));
  }
  std::sort(to_local.begin(), to_local.end());
  const auto local_of = [&to_local](ActionId global) {
    const auto it = std::lower_bound(
        to_local.begin(), to_local.end(),
        std::make_pair(global.value(), std::uint32_t{0}));
    assert(it != to_local.end() && it->first == global.value());
    return ActionId(it->second);
  };

  sub.records.reserve(m);
  sub.graph.n = m;
  sub.graph.preds.resize(m);
  sub.graph.succs.resize(m);
  sub.graph.overlap_lists.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t g = sub.global_ids[i].index();
    sub.records.push_back(records[g]);
    for (ActionId p : graph.preds[g]) {
      sub.graph.preds[i].push_back(local_of(p));
    }
    for (ActionId s : graph.succs[g]) {
      sub.graph.succs[i].push_back(local_of(s));
    }
    for (ActionId o : graph.overlap_lists[g]) {
      sub.graph.overlap_lists[i].push_back(local_of(o));
    }
    // Adjacency of a member stays within the component, but caller-id order
    // is not local-id order, so re-sort (the engine binary-searches these).
    std::sort(sub.graph.preds[i].begin(), sub.graph.preds[i].end());
    std::sort(sub.graph.succs[i].begin(), sub.graph.succs[i].end());
    std::sort(sub.graph.overlap_lists[i].begin(),
              sub.graph.overlap_lists[i].end());
  }
  return sub;
}

GreedyOrder greedy_order(const SolverGraph& graph) {
  const std::size_t m = graph.n;
  GreedyOrder out;
  std::vector<std::size_t> indegree(m, 0);
  for (std::size_t b = 0; b < m; ++b) indegree[b] = graph.preds[b].size();
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      ready;
  for (std::size_t i = 0; i < m; ++i) {
    if (indegree[i] == 0) ready.push(static_cast<std::uint32_t>(i));
  }
  out.sched.reserve(m);
  while (!ready.empty()) {
    const ActionId id(ready.top());
    ready.pop();
    out.sched.push_back(id);
    for (ActionId s : graph.succs[id.index()]) {
      if (--indegree[s.index()] == 0) ready.push(s.value());
    }
  }
  out.live_end = out.sched.size();
  if (out.live_end < m) {
    // Cycle members: frozen at the tail in local-id order, like the engine.
    std::vector<bool> placed(m, false);
    for (ActionId id : out.sched) placed[id.index()] = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (!placed[i]) out.sched.push_back(ActionId(i));
    }
  }
  return out;
}

std::vector<RunStatus> replay_component(const SubProblem& sub,
                                        const std::vector<ActionId>& sched,
                                        const Bitset& dropped,
                                        const Universe& pristine,
                                        Universe& working) {
  // Rewind the component's slots; everything else is untouched.
  std::vector<ObjectId> touched;
  for (const ActionRecord& rec : sub.records) {
    for (ObjectId t : rec.action->targets()) touched.push_back(t);
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  const auto rewind = [&] {
    for (ObjectId t : touched) working.share_slot_from(pristine, t);
  };
  rewind();

  const std::size_t m = sched.size();
  std::vector<RunStatus> status(m, RunStatus::kDropped);
  std::vector<std::size_t> executed;
  for (std::size_t k = 0; k < m; ++k) {
    const ActionId id = sched[k];
    if (dropped.test(id.index())) continue;
    const Action& action = *sub.records[id.index()].action;
    if (!action.precondition(working)) {
      status[k] = RunStatus::kFailed;
      continue;
    }
    if (action.execute(working)) {
      status[k] = RunStatus::kExecuted;
      executed.push_back(k);
      continue;
    }
    // A failing execute may have partially mutated the component's slots;
    // rebuild them by replaying the executed prefix (deterministic, cannot
    // fail).
    rewind();
    for (std::size_t e : executed) {
      const Action& ea = *sub.records[sched[e].index()].action;
      const bool ok = ea.precondition(working) && ea.execute(working);
      assert(ok && "deterministic prefix replay failed");
      (void)ok;
    }
    status[k] = RunStatus::kFailed;
  }
  return status;
}

void merge_solutions(const std::vector<const ComponentSolution*>& parts,
                     const std::vector<ActionRecord>& records,
                     std::vector<ActionId>& sequence,
                     std::vector<RunStatus>& status) {
  // (next element's priority, part index) min-heap; two passes — live
  // parts, then frozen tails — so the merged layout matches the single
  // engine's [live][frozen].
  using Head = std::pair<std::uint64_t, std::size_t>;
  const auto priority_at = [&](const ComponentSolution& part, std::size_t k) {
    return stream_priority(records[part.sequence[k].index()]);
  };
  std::vector<std::size_t> cursor(parts.size(), 0);
  for (int pass = 0; pass < 2; ++pass) {
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const std::size_t end =
          pass == 0 ? parts[p]->live_end : parts[p]->sequence.size();
      cursor[p] = pass == 0 ? 0 : parts[p]->live_end;
      if (cursor[p] < end) {
        heads.emplace(priority_at(*parts[p], cursor[p]), p);
      }
    }
    while (!heads.empty()) {
      const std::size_t p = heads.top().second;
      heads.pop();
      const ComponentSolution& part = *parts[p];
      const std::size_t k = cursor[p]++;
      sequence.push_back(part.sequence[k]);
      status.push_back(part.status[k]);
      const std::size_t end = pass == 0 ? part.live_end : part.sequence.size();
      if (cursor[p] < end) {
        heads.emplace(priority_at(part, cursor[p]), p);
      }
    }
  }
}

ComponentSolution solve_component(const SubProblem& sub,
                                  const Universe& pristine, Universe& working,
                                  const ReconcilerOptions& options,
                                  bool allow_moves,
                                  std::uint64_t initial_digest,
                                  const Deadline& deadline,
                                  SearchStats& stats) {
  ComponentSolution solution;
  solution.min_priority = sub.min_priority;
  const std::size_t m = sub.records.size();

  std::vector<ActionId> local_sched;
  Bitset local_dropped(m);
  if (!allow_moves || m == 1) {
    GreedyOrder greedy = greedy_order(sub.graph);
    for (std::size_t k = greedy.live_end; k < m; ++k) {
      local_dropped.set(greedy.sched[k].index());
    }
    solution.live_end = greedy.live_end;
    local_sched = std::move(greedy.sched);
    ++stats.schedules_completed;
  } else {
    LocalSearchOptions ls = options.local_search;
    ls.seed += 0x9e3779b97f4a7c15ULL * sub.min_priority;
    LocalSearchEngine engine(sub.records, sub.graph, pristine, ls,
                             &initial_digest);
    const std::uint64_t budget =
        std::min<std::uint64_t>(ls.max_moves, options.limits.max_schedules);
    const std::uint64_t steps_left =
        options.limits.max_steps > stats.sim_steps
            ? options.limits.max_steps - stats.sim_steps
            : 0;
    stats.hit_limit |= engine.run(budget, deadline, steps_left);
    stats.schedules_completed += engine.evaluations();
    stats.sim_steps += engine.sim_steps();
    stats.moves_proposed += engine.proposals();
    stats.moves_accepted += engine.accepted();
    stats.state_clones += engine.snapshots_taken();
    local_sched = engine.best_schedule();
    local_dropped = engine.best_dropped();
    solution.live_end = engine.live_end();
  }

  solution.status =
      replay_component(sub, local_sched, local_dropped, pristine, working);
  stats.sim_steps += m;
  solution.sequence.reserve(m);
  for (ActionId local : local_sched) {
    solution.sequence.push_back(sub.global_ids[local.index()]);
  }
  ++stats.components_resolved;
  return solution;
}

}  // namespace icecube
