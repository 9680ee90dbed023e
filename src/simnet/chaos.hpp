// Chaos harness: gossip nodes on the simulated network, under fire.
//
// One `run_chaos` call drives a `SiteGroup` (simnet/sites.hpp: gossip
// nodes and commit engines on a `SimNet`) with timers: each tick performs
// the group's seeded workload and gossips with a seed-chosen partner. It
// injects the full fault menu — message loss, delay, reordering,
// duplication, payload corruption and truncation, random and scheduled
// link partitions, site crashes with restarts — and checks the invariant
// contract after every event.
//
// The run converges when, after the fault horizon and every scheduled
// heal/restart, all sites are up, the whole workload is committed
// everywhere (no pending actions anywhere) and every committed fingerprint
// is byte-identical. A run that exhausts its step budget first reports
// the divergence as a violation. Because every decision derives from the
// seed, a failing (seed, spec) pair replays its exact event sequence —
// compare `ChaosReport::trace_crc` across runs to prove it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "capture/capture_sink.hpp"
#include "core/options.hpp"
#include "fault/fault_plan.hpp"
#include "replica/commit.hpp"
#include "replica/gossip.hpp"
#include "simnet/invariants.hpp"
#include "simnet/simnet.hpp"
#include "simnet/sites.hpp"

namespace icecube {

/// A scheduled link cut with its heal time.
struct ChaosPartition {
  std::string a;
  std::string b;
  std::size_t at = 0;
  std::size_t heal_at = 0;
};

/// A scheduled crash with its restart time.
struct ChaosCrash {
  std::string site;
  std::size_t at = 0;
  std::size_t restart_at = 0;
};

/// Everything one chaos run depends on. Same spec, same report.
struct ChaosSpec {
  std::uint64_t seed = 1;
  std::size_t sites = 4;  ///< clamped to >= 2 (gossip needs a partner)
  /// Counter updates each site performs, one per gossip tick.
  std::size_t actions_per_site = 6;
  std::size_t gossip_interval = 4;  ///< ticks between a site's timers
  std::size_t step_budget = 50000;  ///< external events before giving up
  /// Sim-time after which random faults stop (see SimNet); scheduled
  /// partitions/crashes should fit below it too for convergence runs.
  std::size_t fault_horizon = 400;
  std::size_t partition_window = 16;  ///< random link cut window width
  std::size_t crash_length = 24;      ///< duration of random crashes
  bool deep_replay = true;  ///< replay-validate every commit (see checker)
  bool keep_trace = true;   ///< retain trace lines (CRC always computed)
  /// Run the decentralised commitment protocol (replica/commit.hpp) on
  /// top of gossip: every site drives a CommitEngine, commit frames ride
  /// the same simulated network (with FaultSpec::drop_vote /
  /// stale_vote), the commitment invariants are checked after every
  /// event, and convergence additionally demands that every committed
  /// action became *stable* (irrevocable) everywhere.
  bool commitment = true;
  FaultSpec faults;         ///< loss/corrupt/.../partition probabilities
  std::vector<ChaosPartition> partitions;  ///< scheduled cuts
  std::vector<ChaosCrash> crashes;         ///< scheduled crashes
  ReconcilerOptions reconcile;  ///< forwarded to every node's merges
  /// Observation stream (capture/capture_sink.hpp): when set, the run
  /// records every simnet decision, ingested action, gossip/commit frame
  /// as sent, invariant violation and the end-of-run summary. A pure
  /// observer — attaching one cannot change the event sequence — and NOT
  /// part of the run's identity (two runs differing only here emit
  /// identical traces). Not owned; callers wanting a self-describing
  /// capture file record the serialized spec first (see
  /// capture/replay_engine.hpp's run_chaos_captured).
  CaptureSink* capture = nullptr;
};

/// What one run did and found.
struct ChaosReport {
  std::uint64_t seed = 0;
  std::size_t sites = 0;
  bool converged = false;
  std::size_t converged_at = 0;  ///< sim time of convergence (if any)
  std::size_t steps = 0;         ///< external events processed
  std::size_t final_time = 0;    ///< clock when the run ended
  std::size_t total_actions = 0;  ///< workload actions performed
  std::uint64_t max_epoch = 0;
  std::string final_fingerprint;  ///< set iff converged
  std::vector<Violation> violations;
  GossipStats totals;  ///< summed over all nodes
  CommitStats commit_totals;  ///< summed over all engines (if commitment)
  std::uint64_t stable_height = 0;  ///< max elections decided at any site
  std::size_t stable_actions = 0;   ///< irrevocable actions at run end
  SimCounters net;
  std::size_t injected_faults = 0;  ///< FaultPlan records
  std::size_t observations = 0;     ///< invariant checks performed
  std::uint32_t trace_crc = 0;      ///< replay-determinism witness
  /// Full event trace (only with ChaosSpec::keep_trace).
  std::vector<std::string> trace;

  [[nodiscard]] bool ok() const { return converged && violations.empty(); }
  /// Machine-readable rendering of the whole report (one JSON object).
  [[nodiscard]] std::string to_json() const;
};

/// Payload of the kSummary capture record: the run's replay witnesses
/// (trace CRC first) in "key value" lines, fingerprint last (raw, may span
/// lines). Byte-stable for a given report.
[[nodiscard]] std::string chaos_capture_summary(const ChaosReport& report);

/// Runs one chaos scenario; see file comment.
[[nodiscard]] ChaosReport run_chaos(const ChaosSpec& spec);

}  // namespace icecube
