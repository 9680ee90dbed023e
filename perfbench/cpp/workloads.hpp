// The benchmark's workloads (see perfbench/README.md for their make-up).
#pragma once

#include <memory>
#include <string>

#include "cpp/harness.hpp"

namespace perfbench {

/// Back-to-back small DFS merges (calendar, counter, file-system, text and
/// jigsaw problems), one client in a closed loop.
[[nodiscard]] std::unique_ptr<Workload> make_interactive();

/// Long Fages logs merged whole: batch greedy, local search at a fixed
/// move budget, and a log-after-log catch-up through StreamDaemon.
[[nodiscard]] std::unique_ptr<Workload> make_bulk();

/// Fages replicas streaming at once, interleaved round-robin: a saturating
/// StreamDaemon pass and an open-loop StreamReconciler pass.
[[nodiscard]] std::unique_ptr<Workload> make_live();

/// GossipNode + CommitEngine sites on SimNet under loss, duplication,
/// delay and one partition, until every action is stable everywhere.
[[nodiscard]] std::unique_ptr<Workload> make_anti_entropy();

/// The workload named `name`, or null.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
