#include "core/reconciler.hpp"

#include <algorithm>
#include <sstream>

#include "core/degrade.hpp"
#include "core/incremental.hpp"
#include "core/selection.hpp"
#include "solver/backend.hpp"
#include "util/timer.hpp"

namespace icecube {

Reconciler::Reconciler(Universe initial, std::vector<Log> logs,
                       ReconcilerOptions options, Policy* policy)
    : initial_(std::move(initial)),
      logs_(std::move(logs)),
      options_(options),
      policy_(policy) {
  if (policy_ == nullptr) {
    default_policy_ = std::make_unique<Policy>();
    policy_ = default_policy_.get();
  }
  initial_.set_copy_mode(options_.eager_state_copies
                             ? Universe::CopyMode::kEager
                             : Universe::CopyMode::kCopyOnWrite);
  const std::size_t lanes =
      options_.threads == 1 ? 1 : ThreadPool::resolve(options_.threads);
  // The calling thread is always one lane, so a pool of lanes-1 workers.
  if (lanes > 1) pool_ = std::make_unique<ThreadPool>(lanes - 1);
  records_ = flatten(logs_);

  // Backend resolution (DESIGN.md §13): DFS (and auto, while the problem is
  // small enough) runs on the dense matrix/closure path; the greedy and
  // local-search backends always run on the sparse adjacency path — the
  // dense structures are Θ(n²) and would wall off exactly the log sizes
  // those backends exist for. Auto on an oversized problem degenerates to
  // pure local search.
  resolved_backend_ = options_.backend;
  if (resolved_backend_ == SolverKind::kAuto &&
      records_.size() > options_.dense_graph_limit) {
    resolved_backend_ = SolverKind::kLocalSearch;
  }
  sparse_ = resolved_backend_ == SolverKind::kGreedy ||
            resolved_backend_ == SolverKind::kLocalSearch;
  if (sparse_) {
    IncrementalConstraintGraph built =
        IncrementalConstraintGraph::build(initial_, records_);
    build_stats_ = built.build_stats();
    components_ = built.components();
    graph_ = built.take_graph();
  } else {
    matrix_ =
        build_constraints(initial_, records_, {pool_.get(), &build_stats_});
    relations_ = Relations::from_constraints(matrix_);
    if (options_.memoize_failures) {
      target_overlap_ = build_target_overlap(records_);
    }
  }
}

ReconcileResult Reconciler::run() {
  ReconcileResult result;
  Stopwatch clock;
  const Deadline deadline =
      Deadline::after_seconds(options_.limits.max_seconds);
  result.stats.backend = std::string(to_string(resolved_backend_));

  std::vector<Cutset> cutsets;
  SolveContext ctx;
  ctx.records = &records_;
  ctx.initial = &initial_;
  ctx.options = &options_;
  ctx.policy = policy_;
  ctx.deadline = &deadline;
  ctx.clock = &clock;
  ctx.pool = pool_.get();
  if (sparse_) {
    // One implicit sub-problem; dependence cycles are handled inside the
    // engine (cycle members are frozen out), so no cutset analysis runs.
    cutsets.push_back(Cutset{});
    ctx.graph = &graph_;
    ctx.components = &components_;
  } else {
    CutsetAnalysis cuts =
        find_proper_cutsets(relations_, kMaxCycles, kMaxCutsets);
    result.stats.cutsets_truncated = cuts.truncated;
    policy_->select_cutsets(cuts.cutsets);
    cutsets = std::move(cuts.cutsets);
    ctx.relations = &relations_;
    ctx.target_overlap =
        options_.memoize_failures ? &target_overlap_ : nullptr;
  }
  ctx.cutsets = &cutsets;
  result.stats.cutset_count = cutsets.size();
  result.cutsets = cutsets;
  result.stats.constraint_pairs_evaluated = build_stats_.pairs_evaluated;
  result.stats.constraint_order_calls = build_stats_.order_calls;

  Selection selection(*policy_, options_.keep_outcomes);
  make_solver_backend(resolved_backend_)->solve(ctx, selection, result.stats);

  // Graceful degradation (anytime behaviour): a budget-exhausted search
  // with no complete schedule still owes the caller a valid result. The
  // greedy fallback always terminates and is offered through the same
  // selection, so a better partial search result still wins on cost.
  const bool any_complete =
      std::any_of(selection.outcomes().begin(), selection.outcomes().end(),
                  [](const Outcome& o) { return o.complete; });
  if (options_.degrade_on_exhaustion && result.stats.hit_limit &&
      !any_complete && !records_.empty()) {
    Outcome fallback = greedy_degraded_outcome(initial_, records_);
    result.degraded = true;
    result.degraded_dropped = fallback.skipped;
    (void)selection.offer(std::move(fallback));
  }

  result.stats.elapsed_seconds = clock.seconds();
  result.outcomes = selection.take();
  return result;
}

std::string Reconciler::describe_schedule(
    const std::vector<ActionId>& schedule) const {
  std::ostringstream os;
  for (ActionId id : schedule) {
    const ActionRecord& rec = records_[id.index()];
    const std::string& name = logs_[rec.log.index()].name();
    os << (name.empty() ? "log" + std::to_string(rec.log.value()) : name)
       << ':' << rec.position << ' ' << rec.action->describe() << '\n';
  }
  return os.str();
}

}  // namespace icecube
