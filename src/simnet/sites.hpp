// The site group: one simulated replicated system, and the one definition
// of what a site does in it.
//
// A `SiteGroup` wires N replica sites onto a `SimNet`: one `GossipNode`
// per site, one `CommitEngine` per node when the commitment layer is on,
// the two invariant checkers and a per-site workload quota. It owns the
// site-level protocol every harness shares —
//
//   tick     — perform the site's next workload action (if its quota is
//              not spent), send a gossip frame to the partner, run the
//              commitment tick and send its frame. Site i's k-th action is
//              a seeded counter update, a pure function of (seed, i, k);
//   deliver  — hand a delivered message to the commit engine or the
//              gossip node and send the reply the receiver advises;
//   observe  — run both invariant checkers on one site;
//   converged — the full-convergence predicate.
//
// Harnesses keep only what is theirs: the chaos runner (simnet/chaos.hpp)
// decides *when* and *with whom* through timers and seeded partner
// choice, the model checker (mc/world.hpp) through explored choices. Both
// perform the same actions and send the same frames, so mc findings
// transfer to chaos captures.
//
// The group is a value type: copying forks it (the engines are rebound to
// the copy's nodes, and the copy is detached from any capture sink).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capture/capture_sink.hpp"
#include "fault/fault_plan.hpp"
#include "replica/commit.hpp"
#include "replica/gossip.hpp"
#include "simnet/invariants.hpp"
#include "simnet/simnet.hpp"

namespace icecube {

/// Site names are "s0", "s1", ... — use this in chaos schedules.
[[nodiscard]] std::string chaos_site_name(std::size_t index);

/// Seed of a harness decision stream (workload content, partner choice)
/// keyed by (`seed`, `salt`, `a`, `b`); independent of the FaultPlan's
/// streams.
[[nodiscard]] std::uint64_t decision_seed(std::uint64_t seed,
                                          std::uint64_t salt,
                                          std::uint64_t a, std::uint64_t b);

/// See file comment.
class SiteGroup {
 public:
  /// One site per entry of `quotas` (site i performs `quotas[i]` workload
  /// actions), on a SimNet seeded with (`seed`, `faults`). Every node
  /// starts from the same genesis: one budget counter with a floor deep
  /// enough that every workload action stays committable. `capture` (not
  /// owned, may be nullptr) receives the network's trace records and the
  /// group's action and frame records.
  SiteGroup(std::uint64_t seed, const FaultSpec& faults,
            std::vector<std::size_t> quotas, const GossipOptions& gossip,
            bool commitment, bool deep_replay, CaptureSink* capture);

  /// Fork. The copy is fully independent and detached from any sink.
  SiteGroup(const SiteGroup& other);
  SiteGroup& operator=(const SiteGroup&) = delete;

  [[nodiscard]] SimNet& net() { return net_; }
  [[nodiscard]] const SimNet& net() const { return net_; }
  [[nodiscard]] std::size_t size() const { return names_.size(); }
  [[nodiscard]] const std::string& name(std::size_t site) const {
    return names_[site];
  }
  /// Index of the site called `name`; size() when there is none.
  [[nodiscard]] std::size_t index(const std::string& name) const;
  [[nodiscard]] bool commitment() const { return !engines_.empty(); }
  [[nodiscard]] const std::vector<GossipNode>& nodes() const {
    return nodes_;
  }
  /// Empty without commitment.
  [[nodiscard]] const std::vector<CommitEngine>& engines() const {
    return engines_;
  }
  /// Workload actions site `site` has still to perform.
  [[nodiscard]] std::size_t remaining(std::size_t site) const {
    return remaining_[site];
  }

  /// One site step toward `partner`; see file comment. With
  /// `send_commit_frame` false the commitment tick still runs but its
  /// frame is withheld. `faults` (may be nullptr) damages the frames on
  /// the way out. Returns true iff a workload action was performed.
  bool tick(std::size_t site, std::size_t partner, bool send_commit_frame,
            FaultPlan* faults);

  /// Hands the delivered message `event` to its destination; see file
  /// comment. The reply, if any, goes back to the sender while it is up.
  void deliver(const SimEvent& event, FaultPlan* faults);

  /// Runs both invariant checkers on site `site` at the current time.
  void observe(std::size_t site);

  /// Full convergence: workload drained, every site up, no pending action
  /// anywhere, every committed fingerprint identical and (with
  /// commitment) every committed action irrevocable everywhere.
  [[nodiscard]] bool converged() const;

  /// Records a violation for every end-of-run convergence check that
  /// fails (for runs that stop without converging).
  void check_converged();

  /// Invariant and commitment violations found so far, in that order.
  [[nodiscard]] std::vector<Violation> violations() const;
  [[nodiscard]] bool ok() const;
  /// Invariant checks performed (both checkers).
  [[nodiscard]] std::size_t observations() const;

 private:
  void send(CaptureRecordKind kind, std::size_t from, const std::string& to,
            std::string payload);

  std::uint64_t seed_;
  SimNet net_;
  std::vector<std::string> names_;
  std::vector<GossipNode> nodes_;
  std::vector<CommitEngine> engines_;  ///< empty without commitment
  InvariantChecker checker_;
  CommitInvariantChecker commit_checker_;
  std::vector<std::size_t> remaining_;  ///< workload quota per site
  std::vector<std::uint64_t> workload_seq_;
  CaptureSink* capture_ = nullptr;  ///< not owned; dropped on fork
};

}  // namespace icecube
