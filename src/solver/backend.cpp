#include "solver/backend.hpp"

#include "core/constraint_builder.hpp"
#include "solver/dfs_backend.hpp"
#include "solver/local_search.hpp"
#include "util/bitset.hpp"

namespace icecube {

namespace {

/// DFS where it is affordable, local search where it is not. Runs on the
/// dense path only (it needs the relations and the cutset analysis): each
/// proper cutset whose schedulable remainder fits under kAutoDfsMaxActions
/// is searched exhaustively — the optimality oracle. Each larger cutset's
/// remainder goes through the same decomposed solve the ls backend runs.
class AutoBackend final : public SolverBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "auto"; }

  void solve(const SolveContext& ctx, Selection& selection,
             SearchStats& stats) override {
    const std::size_t n = ctx.records->size();
    std::vector<Cutset> small;
    std::vector<Cutset> large;
    for (const Cutset& cutset : *ctx.cutsets) {
      const std::size_t schedulable = n - cutset.size();
      if (schedulable <= kAutoDfsMaxActions) {
        small.push_back(cutset);
      } else {
        large.push_back(cutset);
      }
    }
    if (!small.empty()) {
      SolveContext sub = ctx;
      sub.cutsets = &small;
      DfsBackend dfs;
      dfs.solve(sub, selection, stats);
    }
    for (const Cutset& cutset : large) {
      const bool keep_going = solve_large(ctx, cutset, selection, stats);
      if (!keep_going || ctx.deadline->expired()) break;
    }
  }

 private:
  /// The records outside `cutset` keep their log and position, so their
  /// stream priorities — and with them the component order and seeds — are
  /// those of the whole problem. Returns the policy's keep-going verdict.
  static bool solve_large(const SolveContext& ctx, const Cutset& cutset,
                          Selection& selection, SearchStats& stats) {
    const std::vector<ActionRecord>& records = *ctx.records;
    std::vector<ActionRecord> kept;
    std::vector<ActionId> kept_ids;  // local id → caller id
    kept.reserve(records.size() - cutset.size());
    kept_ids.reserve(records.size() - cutset.size());
    Bitset cut(records.size());
    for (ActionId a : cutset.actions) cut.set(a.index());
    for (std::size_t i = 0; i < records.size(); ++i) {
      if (cut.test(i)) continue;
      kept.push_back(records[i]);
      kept_ids.emplace_back(i);
    }
    IncrementalConstraintGraph built =
        IncrementalConstraintGraph::build(*ctx.initial, std::move(kept));
    const std::vector<std::vector<ActionId>> components = built.components();
    kept = built.take_records();
    const SolverGraph graph = built.take_graph();

    SolveContext sub = ctx;
    sub.records = &kept;
    sub.graph = &graph;
    sub.components = &components;
    Outcome out = solve_decomposed(sub, /*allow_moves=*/true, stats);
    for (ActionId& id : out.schedule) id = kept_ids[id.index()];
    for (ActionId& id : out.skipped) id = kept_ids[id.index()];
    out.cutset = cutset.actions;
    return offer_outcome(ctx, std::move(out), selection, stats);
  }
};

}  // namespace

std::unique_ptr<SolverBackend> make_solver_backend(SolverKind kind) {
  switch (kind) {
    case SolverKind::kDfs:
      return std::make_unique<DfsBackend>();
    case SolverKind::kGreedy:
      return std::make_unique<GreedyBackend>();
    case SolverKind::kLocalSearch:
      return std::make_unique<LocalSearchBackend>();
    case SolverKind::kAuto:
      return std::make_unique<AutoBackend>();
  }
  return std::make_unique<DfsBackend>();
}

}  // namespace icecube
