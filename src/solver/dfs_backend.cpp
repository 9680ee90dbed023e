#include "solver/dfs_backend.hpp"

#include "core/parallel_driver.hpp"
#include "core/simulator.hpp"

namespace icecube {

void DfsBackend::solve(const SolveContext& ctx, Selection& selection,
                       SearchStats& stats) {
  const std::vector<ActionRecord>& records = *ctx.records;
  const ReconcilerOptions& options = *ctx.options;
  const std::vector<Cutset>& cutsets = *ctx.cutsets;

  if (ctx.pool != nullptr && cutsets.size() > 1) {
    // Independent cutsets are independent search problems: fan them out
    // across the pool and merge deterministically (see parallel_driver.hpp).
    run_cutsets_parallel(records, *ctx.relations, *ctx.graph, *ctx.initial,
                         options, *ctx.policy, cutsets, *ctx.deadline,
                         *ctx.clock, *ctx.pool, selection, stats);
    return;
  }
  for (const Cutset& cutset : cutsets) {
    // Under a non-empty cutset the dependence closure must be recomputed
    // with the cut vertices' edges removed (see Relations::restricted).
    Relations working;
    const Relations* active = ctx.relations;
    if (!cutset.empty()) {
      Bitset removed(records.size());
      for (ActionId a : cutset.actions) removed.set(a.index());
      working = ctx.relations->restricted(removed);
      active = &working;
    }
    Simulator simulator(records, *active, *ctx.graph, options, *ctx.policy,
                        selection, stats, *ctx.clock, *ctx.deadline);
    if (!simulator.run(cutset, *ctx.initial)) break;
  }
}

}  // namespace icecube
