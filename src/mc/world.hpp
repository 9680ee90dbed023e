// One forkable protocol world for the model checker.
//
// `McWorld` bundles everything one explored state needs — the site group
// (simnet/sites.hpp: the simulated network, the gossip nodes, the
// commitment engines and the invariant checkers) and the fault budgets —
// into a single *value type*: copying a world forks it. That is cheap
// because the expensive part, each node's Universe, is copy-on-write, and
// correct because the group's copy rebinds each engine to the copy's node.
//
// The world is driven exclusively through `apply(Choice)`; `enabled()`
// enumerates exactly the choices `apply` accepts, so the explorer, the
// delta-debugging minimizer and the capture replay runner all share one
// transition semantics. A step is the group's `tick` and a delivery its
// `deliver` — the very code the chaos harness runs, seeded workload
// included. The workload is a pure function of (seed, site, seq), so a
// choice sequence fully determines the run (no RNG state to fork) and an
// mc counterexample replays as a chaos-format capture.
//
// `digest()` hashes the protocol-semantic state (replica contents,
// commitment knowledge, per-link in-flight message order, budgets,
// up/cut sets) and deliberately excludes bookkeeping that cannot change
// future behaviour (the clock, message ids, counters, the trace): two
// interleavings of independent choices then collide in the transposition
// table, which is where most of the reduction's power comes from.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "capture/capture_sink.hpp"
#include "core/mutation.hpp"
#include "mc/choice.hpp"
#include "simnet/invariants.hpp"
#include "simnet/simnet.hpp"
#include "simnet/sites.hpp"

namespace icecube::mc {

/// Shape of the explored configuration. Small on purpose: the checker is
/// exhaustive, so every knob multiplies the state space.
struct McConfig {
  std::size_t sites = 3;    ///< clamped to [2, 8]
  std::size_t actions = 3;  ///< total workload actions, round-robin
  std::uint64_t seed = 1;   ///< workload content seed (chaos recipe)
  bool commitment = true;   ///< run a CommitEngine per site
  bool algebra = true;      ///< merge-law pass at quiescent states
  bool withhold = false;    ///< enable vote-withholding step choices
  std::size_t max_drops = 0;    ///< message-loss choice budget
  std::size_t max_dups = 0;     ///< duplication choice budget
  std::size_t max_crashes = 0;  ///< crash choice budget
  std::size_t max_cuts = 0;     ///< partition choice budget
  /// Seeded protocol defect active for the whole exploration
  /// (core/mutation.hpp); kNone checks the shipped protocol.
  ProtocolMutant mutant = ProtocolMutant::kNone;
};

/// See file comment.
class McWorld {
 public:
  /// Builds the genesis state. `capture` (not owned, may be nullptr)
  /// receives chaos-format kTrace/kAction/kGossipFrame/kCommitFrame
  /// records as choices are applied — attached by the schedule runner;
  /// explorer forks never capture (copies detach the sink).
  explicit McWorld(const McConfig& config, CaptureSink* capture = nullptr);

  /// Fork. The copy is fully independent and detached from any sink.
  McWorld(const McWorld& other) = default;
  McWorld& operator=(const McWorld&) = delete;

  [[nodiscard]] const McConfig& config() const { return config_; }
  [[nodiscard]] std::size_t sites() const { return group_.size(); }
  [[nodiscard]] SimNet& net() { return group_.net(); }

  /// Every choice currently applicable, in canonical order (steps by
  /// site/peer, then per-message choices by link/index, then faults).
  /// `apply` accepts exactly these.
  [[nodiscard]] std::vector<Choice> enabled();

  /// Applies one transition. Returns false — world untouched (up to a
  /// cheap probe) — when the choice is not currently enabled; the
  /// minimizer uses that to discard infeasible shrunken traces.
  bool apply(const Choice& choice);

  /// Protocol-semantic state hash; see file comment for what it covers.
  [[nodiscard]] std::uint64_t digest() const;

  /// No messages in flight and every site up — the states where the
  /// algebraic merge laws are asserted.
  [[nodiscard]] bool quiescent() const;

  /// Runs the merge-law pass on copies (the world is not disturbed):
  /// idempotence — a drained node receiving its own frame must not move;
  /// commutativity — two same-state nodes merging each other's frames
  /// must compute bit-identical committed states. Violations are recorded
  /// and also returned.
  std::optional<Violation> check_algebra();

  /// All violations found so far (invariants, commitment, algebra).
  [[nodiscard]] std::vector<Violation> violations() const;
  [[nodiscard]] bool violated() const;

  /// No event in flight and the group converged (SiteGroup::converged,
  /// the chaos harness's convergence predicate).
  [[nodiscard]] bool settled() const;

  [[nodiscard]] std::uint32_t trace_crc() const {
    return group_.net().trace_crc();
  }

 private:
  [[nodiscard]] std::optional<std::uint64_t> find_message(
      const Choice& choice) const;
  bool apply_step(const Choice& choice);
  bool apply_message_choice(const Choice& choice);
  bool apply_control(const Choice& choice);

  McConfig config_;
  SiteGroup group_;  ///< workload quotas dealt round-robin
  std::vector<Violation> algebra_violations_;
  std::size_t drops_used_ = 0;
  std::size_t dups_used_ = 0;
  std::size_t crashes_used_ = 0;
  std::size_t cuts_used_ = 0;
};

}  // namespace icecube::mc
