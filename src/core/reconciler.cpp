#include "core/reconciler.hpp"

#include <algorithm>
#include <sstream>

#include "core/degrade.hpp"
#include "core/selection.hpp"
#include "solver/backend.hpp"
#include "util/timer.hpp"

namespace icecube {

namespace {

/// Runs the one pair pass over `records` (flatten order). `dense` (the dfs
/// and auto backends) also fills the matrix and derives the relations;
/// otherwise the component partition is taken instead.
ConstraintStage build_constraint_stage(const Universe& initial,
                                       std::vector<ActionRecord> records,
                                       bool dense) {
  ConstraintStage stage;
  IncrementalConstraintGraph built = IncrementalConstraintGraph::build(
      initial, std::move(records), dense ? &stage.matrix : nullptr);
  stage.build_stats = built.build_stats();
  if (dense) {
    stage.relations = Relations::from_constraints(stage.matrix);
  } else {
    stage.components = built.components();
  }
  stage.records = built.take_records();
  stage.graph = built.take_graph();
  return stage;
}

/// The proper cutsets of `relations` (§3.2) in the order `policy` selects,
/// with their count and truncation recorded in `stats`.
std::vector<Cutset> select_cutsets(const Relations& relations, Policy& policy,
                                   SearchStats& stats) {
  CutsetAnalysis cuts =
      find_proper_cutsets(relations, kMaxCycles, kMaxCutsets);
  stats.cutsets_truncated = cuts.truncated;
  policy.select_cutsets(cuts.cutsets);
  stats.cutset_count = cuts.cutsets.size();
  return std::move(cuts.cutsets);
}

}  // namespace

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

  // Backend resolution (DESIGN.md §13): DFS (and auto, while the problem is
  // small enough) runs on the dense matrix/closure path; the greedy and
  // local-search backends stay on the sparse graph — the dense structures
  // are Θ(n²) and would wall off exactly the log sizes those backends exist
  // for. Auto on an oversized problem degenerates to pure local search.
  std::vector<ActionRecord> records = flatten(logs_);
  resolved_backend_ = options_.backend;
  if (resolved_backend_ == SolverKind::kAuto &&
      records.size() > options_.dense_graph_limit) {
    resolved_backend_ = SolverKind::kLocalSearch;
  }
  sparse_ = resolved_backend_ == SolverKind::kGreedy ||
            resolved_backend_ == SolverKind::kLocalSearch;
  stage_ = build_constraint_stage(initial_, std::move(records), !sparse_);
}

ReconcileResult Reconciler::run() {
  ReconcileResult result;
  Stopwatch clock;
  const Deadline deadline =
      Deadline::after_seconds(options_.limits.max_seconds);
  result.stats.backend = std::string(to_string(resolved_backend_));

  std::vector<Cutset> cutsets;
  SolveContext ctx;
  ctx.records = &stage_.records;
  ctx.initial = &initial_;
  ctx.options = &options_;
  ctx.policy = policy_;
  ctx.deadline = &deadline;
  ctx.clock = &clock;
  ctx.pool = pool_.get();
  ctx.graph = &stage_.graph;
  if (sparse_) {
    // One implicit sub-problem; dependence cycles are handled inside the
    // engine (cycle members are frozen out), so no cutset analysis runs.
    cutsets.push_back(Cutset{});
    result.stats.cutset_count = 1;
    ctx.components = &stage_.components;
  } else {
    cutsets = select_cutsets(stage_.relations, *policy_, result.stats);
    ctx.relations = &stage_.relations;
  }
  ctx.cutsets = &cutsets;
  result.cutsets = cutsets;
  result.stats.constraint_pairs_evaluated = stage_.build_stats.pairs_evaluated;
  result.stats.constraint_order_calls = stage_.build_stats.order_calls;

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
      !any_complete && !stage_.records.empty()) {
    Outcome fallback = greedy_degraded_outcome(initial_, stage_.records);
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
    const ActionRecord& rec = stage_.records[id.index()];
    const std::string& name = logs_[rec.log.index()].name();
    os << (name.empty() ? "log" + std::to_string(rec.log.value()) : name)
       << ':' << rec.position << ' ' << rec.action->describe() << '\n';
  }
  return os.str();
}

}  // namespace icecube
