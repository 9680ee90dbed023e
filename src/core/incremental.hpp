// Pipelined / anytime reconciliation (§2).
//
// The paper presents the three stages as sequential "to simplify
// exposition" but notes that "in fact they run in a pipeline with various
// feedback loops, in order to provide better interactivity and faster
// response". This facade exposes that mode: the search runs in bounded
// slices, and between slices the application can read the incumbent best
// outcome (e.g. to give the user immediate feedback, as §4.3 suggests for
// the H=All run that finds its optimum after two sequences), adjust its
// policy, or stop early and keep what was found.
//
// The static stage is Reconciler's: `build_constraint_stage` on the dense
// path and `select_cutsets`. (The incremental conflict graph the streaming
// daemon grows lives in core/constraint_builder.hpp.)
#pragma once

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/cutset.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "core/reconciler.hpp"
#include "core/relations.hpp"
#include "core/selection.hpp"
#include "core/simulator.hpp"
#include "core/universe.hpp"
#include "solver/graph.hpp"
#include "util/timer.hpp"

namespace icecube {

/// Single-shot, sliceable reconciliation. Construct, call `step()` until
/// `finished()`, then `take_result()` — or stop at any time and take what
/// has been found so far.
class IncrementalReconciler {
 public:
  IncrementalReconciler(Universe initial, std::vector<Log> logs,
                        ReconcilerOptions options = {},
                        Policy* policy = nullptr);
  ~IncrementalReconciler();

  IncrementalReconciler(const IncrementalReconciler&) = delete;
  IncrementalReconciler& operator=(const IncrementalReconciler&) = delete;

  /// Snapshot of search progress returned by `step`.
  struct Progress {
    std::uint64_t schedules_explored = 0;  ///< cumulative terminal nodes
    bool finished = false;                 ///< nothing left to explore
    bool has_best = false;                 ///< an incumbent outcome exists
    double best_cost = 0.0;                ///< cost of the incumbent
    std::size_t cutsets_remaining = 0;     ///< sub-searches not yet started
  };

  /// Explores up to `schedule_budget` further schedules and returns the
  /// updated progress. Calling after completion is a no-op.
  Progress step(std::uint64_t schedule_budget);

  [[nodiscard]] bool finished() const;
  /// The incumbent best outcome; valid only when progress reports has_best.
  [[nodiscard]] const Outcome& best() const { return selection_.best(); }
  [[nodiscard]] const SearchStats& stats() const { return stats_; }

  /// Stops the search (if still running) and returns everything found.
  /// The reconciler is spent afterwards.
  [[nodiscard]] ReconcileResult take_result();

  [[nodiscard]] const Relations& relations() const { return stage_.relations; }
  [[nodiscard]] const std::vector<ActionRecord>& records() const {
    return stage_.records;
  }

 private:
  [[nodiscard]] Progress progress() const;
  /// Advances to the next cutset's search; false when none remain.
  bool open_next_cutset();

  Universe initial_;
  std::vector<Log> logs_;
  ReconcilerOptions options_;
  Policy* policy_;
  std::unique_ptr<Policy> default_policy_;

  /// Built by the same construction as Reconciler's dense path; its graph
  /// feeds every cutset's simulator the §6 overlap lists.
  ConstraintStage stage_;

  std::vector<Cutset> cutsets_;
  std::size_t next_cutset_ = 0;
  Relations working_;  ///< cutset-restricted relations the simulator reads

  Stopwatch clock_;
  Deadline deadline_;
  SearchStats stats_;
  Selection selection_;
  std::optional<Simulator> simulator_;
  bool done_ = false;
};

}  // namespace icecube
