// Pass 2 — the graph linter: pre-search smells over a built constraint
// graph (§3.1/§3.2).
//
// Where the relation auditor (relation_audit.hpp) interrogates `order()`
// pair by pair, the linter builds the full constraint matrix the engine
// would build — through its one pair pass, reusing its work counters
// — maps it onto the D/I relations, and inspects the graph shape:
//
//  D_CYCLE           a dependence cycle: no schedule can contain all of its
//                    actions, so the scheduler must cut (§3.2). One finding
//                    per strongly connected component, carrying a *minimal*
//                    cycle witness (shortest cycle through the SCC).
//  REDUNDANT_D_EDGE  a raw D edge already implied by the transitive closure
//                    through a third action — harmless, but it means order()
//                    encodes the same fact twice (info).
//  DEAD_ACTION       an action whose precondition fails in every sampled
//                    state: it can never execute, so every constraint it
//                    contributes is noise.
//  MAYBE_DEGENERATE  every evaluated pair came back `maybe` — the graph has
//                    no static information and the search degenerates to
//                    brute force (§3.1).
//
// Entry points: `lint_subject` samples a problem from an AuditSubject
// (one synthetic single-action log per sampled action, so every pair is
// across-logs); `lint_problem` lints a concrete universe + logs instance,
// sampling states from log-prefix replays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "core/audit.hpp"
#include "core/log.hpp"

namespace icecube::analysis {

struct GraphLintOptions {
  std::uint64_t seed = 0x1cecbe0ULL;
  /// Subject mode: actions drawn for the synthetic problem (deduplicated by
  /// tag).
  std::size_t action_samples = 24;
  /// Subject mode: reachable states sampled for the dead-action probe.
  std::size_t state_samples = 12;
  /// Subject mode: longest random prefix executed to reach a sampled state.
  std::size_t max_prefix = 6;
  /// Cap on REDUNDANT_D_EDGE findings (info-level; they can be numerous).
  std::size_t max_redundant_reports = 16;
};

/// Lints the constraint graph of a concrete problem instance. States for
/// the dead-action probe are the initial universe plus every per-log prefix
/// replay state.
[[nodiscard]] AnalysisReport lint_problem(const Universe& universe,
                                          const std::vector<Log>& logs,
                                          const std::string& subject_name,
                                          const GraphLintOptions& options = {});

/// Samples a synthetic problem from the subject (each sampled action in its
/// own log) and lints its graph.
[[nodiscard]] AnalysisReport lint_subject(const AuditSubject& subject,
                                          const GraphLintOptions& options = {});

/// Lints every subject and merges the reports.
[[nodiscard]] AnalysisReport lint_subjects(
    const std::vector<AuditSubject>& subjects,
    const GraphLintOptions& options = {});

}  // namespace icecube::analysis
