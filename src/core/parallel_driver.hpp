// The parallel reconciliation driver: concurrent per-cutset searches with a
// deterministic, budget-carving merge.
//
// Independent proper cutsets are independent search problems — each gets its
// own restricted relation set, scheduler and simulator, and only meets the
// others in the selection stage. The driver exploits exactly that: every
// cutset's search runs on a pool worker against a private Selection and
// SearchStats, and the results are merged *in cutset order*, carving each
// cutset's effective schedule/step budget out of the global SearchLimits the
// way the sequential loop's shared counters would. A cutset whose parallel
// run overshot its carved budget is re-run (on the merging thread) under the
// exact carved limits, so outcomes, schedule orderings and non-timing stats
// are bit-for-bit identical to `threads=1` for every thread count. See
// DESIGN.md §8.
//
// One deliberate exception: the clone counters (SearchStats::object_clones /
// clones_avoided / bytes_cloned). Workers gate final-state materialisation
// against a *local* keep-K (the shared one does not exist yet), so a worker
// may materialise a state the sequential loop would have skipped. Outcomes
// and every search counter are still identical — only the clone accounting
// may differ across thread counts.
#pragma once

#include <vector>

#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "core/relations.hpp"
#include "core/selection.hpp"
#include "core/universe.hpp"
#include "solver/graph.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace icecube {

/// Searches every cutset of `cutsets` concurrently on `pool` (the calling
/// thread participates) and merges outcomes into `selection` and counters
/// into `stats`, replicating the sequential cutset loop bit-for-bit.
///
/// `policy` hooks are invoked from worker threads concurrently and must be
/// thread-safe (see ReconcilerOptions::threads). `deadline` must be the
/// run's shared deadline; `clock` the run stopwatch (used only for timing
/// stats). `graph` is the whole problem's conflict graph, shared by every
/// cutset's simulator for the §6 causal keys.
void run_cutsets_parallel(const std::vector<ActionRecord>& records,
                          const Relations& relations, const SolverGraph& graph,
                          const Universe& initial,
                          const ReconcilerOptions& options, Policy& policy,
                          const std::vector<Cutset>& cutsets,
                          const Deadline& deadline, const Stopwatch& clock,
                          ThreadPool& pool, Selection& selection,
                          SearchStats& stats);

}  // namespace icecube
