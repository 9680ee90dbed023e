#include "analysis/graph_lint.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <utility>

#include "core/constraint_builder.hpp"
#include "core/cycles.hpp"
#include "core/relations.hpp"

namespace icecube::analysis {

namespace {

constexpr const char* kPass = "graph_lint";
/// Minimum evaluated pairs before MAYBE_DEGENERATE may fire.
constexpr std::size_t kMinDegenerateEvidence = 10;

std::string describe_record(const ActionRecord& r) {
  return r.action->tag().describe();
}

/// Shortest cycle through one SCC of the raw D graph: BFS from each member
/// back to itself, edges restricted to the component. Exact and bounded
/// (SCCs are small in practice), unlike capped Johnson enumeration.
std::vector<ActionId> minimal_cycle(const Relations& rel,
                                    const std::vector<ActionId>& scc) {
  std::vector<char> in_scc(rel.size(), 0);
  for (ActionId v : scc) in_scc[v.index()] = 1;
  std::vector<ActionId> best;
  for (ActionId start : scc) {
    // BFS over raw edges within the SCC, recording parents.
    std::vector<int> parent(rel.size(), -1);
    std::vector<char> seen(rel.size(), 0);
    std::deque<ActionId> queue;
    queue.push_back(start);
    std::optional<ActionId> closer;
    while (!queue.empty() && !closer) {
      const ActionId v = queue.front();
      queue.pop_front();
      for (std::size_t w = 0; w < rel.size(); ++w) {
        if (!in_scc[w] || !rel.depends_raw(v, ActionId(w))) continue;
        if (ActionId(w) == start && v != start) {
          closer = v;  // found an edge back to start
          break;
        }
        if (!seen[w] && ActionId(w) != start) {
          seen[w] = 1;
          parent[w] = static_cast<int>(v.index());
          queue.push_back(ActionId(w));
        }
      }
    }
    if (!closer) continue;
    std::vector<ActionId> cycle;
    for (ActionId v = *closer;;) {
      cycle.push_back(v);
      if (v == start) break;
      v = ActionId(static_cast<std::size_t>(parent[v.index()]));
    }
    std::reverse(cycle.begin(), cycle.end());
    if (best.empty() || cycle.size() < best.size()) best = std::move(cycle);
  }
  return best;
}

struct GraphLinter {
  const std::string& subject_name;
  const GraphLintOptions& options;
  AnalysisReport report;

  void emit(Rule rule, std::string message,
            std::vector<std::string> witness_actions,
            std::string witness_state = {}) {
    Diagnostic d;
    d.rule = rule;
    d.severity = default_severity(rule);
    d.pass = kPass;
    d.subject = subject_name;
    d.message = std::move(message);
    d.witness_actions = std::move(witness_actions);
    d.witness_state = std::move(witness_state);
    report.diagnostics.push_back(std::move(d));
  }

  void lint(const Universe& universe, const std::vector<ActionRecord>& records,
            const std::vector<Universe>& states) {
    // Build the matrix through the engine's one pair pass, inheriting its
    // work counters into the analysis stats.
    ConstraintMatrix matrix;
    const ConstraintBuildStats build_stats =
        IncrementalConstraintGraph::build(universe, records, &matrix)
            .build_stats();
    report.stats.pairs_checked += build_stats.pairs_evaluated;
    report.stats.order_calls += build_stats.order_calls;
    report.stats.states_sampled += states.size();

    const Relations relations = Relations::from_constraints(matrix);
    const std::size_t n = records.size();

    // --- D_CYCLE: one finding per SCC, minimal witness ------------------
    std::vector<int> scc_of(n, -1);
    const auto sccs = strongly_connected_components(relations);
    for (std::size_t c = 0; c < sccs.size(); ++c) {
      for (ActionId v : sccs[c]) scc_of[v.index()] = static_cast<int>(c);
    }
    for (const auto& scc : sccs) {
      if (scc.size() < 2) continue;
      const std::vector<ActionId> cycle = minimal_cycle(relations, scc);
      std::vector<std::string> witness;
      witness.reserve(cycle.size());
      for (ActionId v : cycle) witness.push_back(describe_record(records[v.index()]));
      emit(Rule::kDCycle,
           "dependence cycle over " + std::to_string(scc.size()) +
               " action(s): no schedule can contain all of them; the "
               "scheduler must cut (minimal witness of length " +
               std::to_string(cycle.size()) + " shown)",
           std::move(witness));
    }

    // --- REDUNDANT_D_EDGE: raw edge implied transitively ----------------
    std::size_t redundant_reported = 0;
    std::size_t redundant_suppressed = 0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b || !relations.depends_raw(ActionId(a), ActionId(b))) {
          continue;
        }
        // Within one SCC the closure makes everything imply everything —
        // skip those (the cycle finding already covers them). Outside, a
        // path a→x→…→b cannot revisit `a`, so raw(a,x) && closed(x,b)
        // proves the edge redundant without using it.
        if (scc_of[a] == scc_of[b]) continue;
        bool redundant = false;
        std::size_t via = 0;
        for (std::size_t x = 0; x < n && !redundant; ++x) {
          if (x == a || x == b || scc_of[x] == scc_of[a]) continue;
          if (relations.depends_raw(ActionId(a), ActionId(x)) &&
              relations.depends(ActionId(x), ActionId(b))) {
            redundant = true;
            via = x;
          }
        }
        if (!redundant) continue;
        if (redundant_reported >= options.max_redundant_reports) {
          ++redundant_suppressed;
          continue;
        }
        ++redundant_reported;
        emit(Rule::kRedundantDEdge,
             "raw D edge already implied by the transitive closure (via the "
             "third action shown); order() encodes the same fact twice",
             {describe_record(records[a]), describe_record(records[b]),
              describe_record(records[via])});
      }
    }
    if (redundant_suppressed > 0) {
      emit(Rule::kRedundantDEdge,
           std::to_string(redundant_suppressed) +
               " further redundant D edge(s) suppressed (cap " +
               std::to_string(options.max_redundant_reports) + ")",
           {});
    }

    // --- DEAD_ACTION: precondition fails in every sampled state ---------
    for (std::size_t a = 0; a < n; ++a) {
      bool runnable = false;
      for (const Universe& s : states) {
        ++report.stats.executions;
        if (records[a].action->precondition(s)) {
          runnable = true;
          break;
        }
      }
      if (!runnable) {
        emit(Rule::kDeadAction,
             "precondition fails in all " + std::to_string(states.size()) +
                 " sampled state(s): the action can never execute, so every "
                 "constraint it contributes is noise",
             {describe_record(records[a])});
      }
    }

    // --- MAYBE_DEGENERATE: a graph with no static information -----------
    std::size_t evaluated = 0;
    std::size_t maybes = 0;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b) continue;
        ++evaluated;
        if (matrix.at(ActionId(a), ActionId(b)) == Constraint::kMaybe) {
          ++maybes;
        }
      }
    }
    if (evaluated >= kMinDegenerateEvidence && maybes == evaluated) {
      emit(Rule::kMaybeDegenerate,
           "every evaluated pair is 'maybe' (" + std::to_string(evaluated) +
               " pairs): the constraint graph carries no static information "
               "and the search degenerates to brute force (§3.1)",
           {});
    }
  }
};

}  // namespace

AnalysisReport lint_problem(const Universe& universe,
                            const std::vector<Log>& logs,
                            const std::string& subject_name,
                            const GraphLintOptions& options) {
  GraphLinter linter{subject_name, options, {}};
  const std::vector<ActionRecord> records = flatten(logs);

  // State pool: the initial universe plus every per-log prefix replay
  // state (each log ran successfully at its origin site, so its prefixes
  // are reachable by construction).
  std::vector<Universe> states;
  states.push_back(universe);
  for (const Log& log : logs) {
    Universe u = universe;
    for (const ActionPtr& action : log) {
      ++linter.report.stats.executions;
      if (!action->precondition(u) || !action->execute(u)) break;
      states.push_back(u);
    }
  }

  linter.lint(universe, records, states);
  return std::move(linter.report);
}

AnalysisReport lint_subject(const AuditSubject& subject,
                            const GraphLintOptions& options) {
  GraphLinter linter{subject.name, options, {}};
  Rng rng(options.seed);
  const Universe initial = subject.make_universe();

  // Distinct-tag action pool, one synthetic single-action log per action so
  // every pair is across-logs.
  std::vector<ActionRecord> records;
  const std::size_t draws = options.action_samples * 4;
  for (std::size_t i = 0;
       i < draws && records.size() < options.action_samples; ++i) {
    ActionPtr candidate = subject.sample_action(initial, rng);
    const std::string key = candidate->tag().describe();
    const bool duplicate = std::any_of(
        records.begin(), records.end(), [&key](const ActionRecord& r) {
          return r.action->tag().describe() == key;
        });
    if (duplicate) continue;
    records.push_back(
        ActionRecord{std::move(candidate), LogId(records.size()), 0});
  }

  // Reachable-state pool for the dead-action probe.
  std::vector<Universe> states;
  states.push_back(initial);
  for (std::size_t i = 0; i < options.state_samples; ++i) {
    Universe u = initial;
    const std::size_t len = rng.below(options.max_prefix + 1);
    for (std::size_t j = 0; j < len; ++j) {
      const ActionPtr action = subject.sample_action(u, rng);
      ++linter.report.stats.executions;
      if (action->precondition(u)) (void)action->execute(u);
    }
    states.push_back(std::move(u));
  }

  linter.lint(initial, records, states);
  return std::move(linter.report);
}

AnalysisReport lint_subjects(const std::vector<AuditSubject>& subjects,
                             const GraphLintOptions& options) {
  AnalysisReport merged;
  for (const AuditSubject& subject : subjects) {
    merged.merge(lint_subject(subject, options));
  }
  return merged;
}

}  // namespace icecube::analysis
