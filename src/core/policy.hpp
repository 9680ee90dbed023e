// Application policy hooks (§3.5).
//
// IceCube stays generic by letting the application steer reconciliation:
// choose among cutsets, control exploration order, prune unpromising
// prefixes, inject prefix-conditional dependencies, analyse failures, and
// rank complete outcomes with an application-specific cost function.
#pragma once

#include <utility>
#include <vector>

#include "core/outcome.hpp"
#include "core/cutset.hpp"
#include "core/universe.hpp"
#include "util/ids.hpp"

namespace icecube {

/// Read-only view of the search position handed to policy hooks.
struct PrefixView {
  /// Actions executed so far, in order. Empty at the root.
  const std::vector<ActionId>& actions;
  /// Actions dropped so far (FailureMode::kSkipAction only).
  const std::vector<ActionId>& skipped;
};

/// Application hook interface. All hooks have neutral defaults, so policies
/// override only what they need. Hooks must not retain references into the
/// arguments beyond the call.
class Policy {
 public:
  Policy() = default;
  Policy(const Policy&) = default;
  Policy& operator=(const Policy&) = default;
  Policy(Policy&&) = default;
  Policy& operator=(Policy&&) = default;
  virtual ~Policy() = default;

  /// Accept/reorder/trim the proper cutsets before searching. Called once.
  /// Default: keep all, smallest first (as produced by the analysis).
  virtual void select_cutsets(std::vector<Cutset>& cutsets) { (void)cutsets; }

  /// Reorder (or trim) the successor candidates of `prefix`; the scheduler
  /// explores them left to right. Default: engine order (ascending id).
  virtual void order_candidates(const PrefixView& prefix,
                                std::vector<ActionId>& candidates) {
    (void)prefix;
    (void)candidates;
  }

  /// Return false to abandon `prefix` (and everything below it) based on the
  /// intermediate state.
  virtual bool keep_prefix(const PrefixView& prefix, const Universe& state) {
    (void)prefix;
    (void)state;
    return true;
  }

  /// Inject extra dependencies conditional on the current prefix: append
  /// pairs (a, b) meaning "a must precede b below this prefix".
  virtual void extra_dependencies(
      const PrefixView& prefix,
      std::vector<std::pair<ActionId, ActionId>>& out) {
    (void)prefix;
    (void)out;
  }

  /// Notification that `failed` could not be simulated after `prefix`.
  /// `state` is the universe in which the failure occurred.
  virtual void on_failure(const PrefixView& prefix, const Universe& state,
                          ActionId failed, FailureKind kind) {
    (void)prefix;
    (void)state;
    (void)failed;
    (void)kind;
  }

  /// Called for every recorded outcome (complete schedules always; dead-end
  /// prefixes when `record_partial_outcomes` is set), with `cost` already
  /// set and `final_state` readable, before the selection stage ranks it.
  /// Return false to stop the entire search — e.g. once an
  /// application-optimal result is in hand, or `!outcome.complete` to stop
  /// at the first complete schedule. The outcome that stops the search is
  /// still offered to the selection stage.
  ///
  /// This is the interactive-feedback channel (§2's pipeline "with various
  /// feedback loops", §4.3's immediate feedback): an application shows the
  /// incumbent as outcomes arrive and stops once it is good enough. A GUI
  /// that must stay responsive runs `Reconciler::run()` on a worker thread
  /// and reads the incumbent from here. Under `ReconcilerOptions::threads
  /// != 1` this hook is called from worker threads, concurrently, so a
  /// policy with state must synchronise it.
  virtual bool on_outcome(const Outcome& outcome) {
    (void)outcome;
    return true;
  }

  /// Cost of an outcome; lower is better. The default prefers more executed
  /// actions, then fewer skips.
  virtual double cost(const Outcome& outcome) {
    return -static_cast<double>(outcome.schedule.size()) +
           0.25 * static_cast<double>(outcome.skipped.size());
  }
};

}  // namespace icecube
