// Output checks, computed independently of the code under test.
//
// Each check returns one message per violation (empty = pass), so a run
// can report every problem it found and a test can show that a corrupted
// result is rejected.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/log.hpp"
#include "core/outcome.hpp"
#include "core/universe.hpp"
#include "stream/daemon.hpp"

namespace perfbench {

using Problems = std::vector<std::string>;

// --- small merges (interactive) -------------------------------------------

/// Replays `outcome.schedule` from `initial` with each action's own
/// precondition/execute; every step must succeed and the replayed state's
/// fingerprint must equal `outcome.final_state`'s.
[[nodiscard]] Problems check_replay(const icecube::Universe& initial,
                                    const std::vector<icecube::ActionRecord>&
                                        records,
                                    const icecube::Outcome& outcome);

/// Scheduled, skipped and cut actions must partition ids [0, n).
[[nodiscard]] Problems check_partition(std::size_t n,
                                       const icecube::Outcome& outcome);

/// Every dependence edge a → b (`depends(a, b)`: a must precede b) between
/// two executed actions must hold in the schedule.
[[nodiscard]] Problems check_dependences(
    std::size_t n, const std::function<bool(std::size_t, std::size_t)>& depends,
    const icecube::Outcome& outcome);

// --- Fages token/claim problems (bulk, live) -------------------------------

/// Executed tasks in execution order, read through their tags
/// fages(uid, n_consume, consumed..., produced...).
struct FagesRun {
  std::vector<const icecube::Action*> executed;
  const icecube::Universe* final_state = nullptr;
};

/// Per-cell token conservation (final = initial + produced − consumed, and
/// no cell ever negative along the schedule), claim capacity (executed
/// claimers of a claim cell ≤ its initial stock) and producer order (every
/// executed task runs after the executed producers of the tokens it
/// consumes). Claim cells are ids [0, claim_cells).
[[nodiscard]] Problems check_fages(const icecube::Universe& initial,
                                   std::size_t claim_cells,
                                   const FagesRun& run);

/// A merge reduced to a form independent of id assignment: executed
/// actions as (log, position) keys in schedule order, the rest as a sorted
/// key set, and the final-state digest.
struct CanonicalMerge {
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> not_executed;
  std::uint64_t state_digest = 0;
};

[[nodiscard]] CanonicalMerge canonical_batch(
    const std::vector<icecube::ActionRecord>& records,
    const icecube::Outcome& outcome);
[[nodiscard]] CanonicalMerge canonical_stream(
    const std::vector<icecube::ActionRecord>& records,
    const icecube::StreamResult& result);

/// Streamed result must equal the batch merge of the same logs.
[[nodiscard]] Problems check_same_merge(const CanonicalMerge& streamed,
                                        const CanonicalMerge& batch);

/// Every ingested action committed exactly once, and every commit's
/// promised status equal to the action's status in the final merge.
[[nodiscard]] Problems check_commits(
    std::size_t ingested, const std::vector<icecube::CommitEntry>& committed,
    const icecube::StreamResult& result);

/// Local search may not end worse than greedy on the same problem.
[[nodiscard]] Problems check_ls_not_worse(double ls_cost, double greedy_cost);

// --- anti-entropy ----------------------------------------------------------

/// One site's final state, as read from its GossipNode.
struct SiteFinal {
  std::string name;
  std::string fingerprint;  ///< committed universe fingerprint
  std::vector<std::string> history_uids;
  std::size_t stable_length = 0;
  std::int64_t counter = 0;  ///< committed counter value
};

/// All sites hold identical committed fingerprints; every performed uid
/// appears exactly once in every site's history, which is wholly stable
/// and holds nothing else; each site's counter equals `expected_counter`
/// (genesis plus the deltas the benchmark generated).
[[nodiscard]] Problems check_anti_entropy(
    const std::vector<SiteFinal>& sites,
    const std::vector<std::string>& performed_uids,
    std::int64_t expected_counter);

}  // namespace perfbench
