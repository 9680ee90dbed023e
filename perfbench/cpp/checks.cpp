#include "cpp/checks.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "solver/components.hpp"
#include "workload/fages.hpp"

namespace perfbench {

using icecube::ActionId;
using icecube::ObjectId;

namespace {

std::string id_text(std::size_t id) { return std::to_string(id); }

}  // namespace

Problems check_replay(const icecube::Universe& initial,
                      const std::vector<icecube::ActionRecord>& records,
                      const icecube::Outcome& outcome) {
  Problems out;
  icecube::Universe state = initial;
  for (std::size_t k = 0; k < outcome.schedule.size(); ++k) {
    const std::size_t id = outcome.schedule[k].index();
    if (id >= records.size()) {
      out.push_back("schedule entry " + std::to_string(k) +
                    " names unknown action " + id_text(id));
      return out;
    }
    const icecube::Action& action = *records[id].action;
    if (!action.precondition(state) || !action.execute(state)) {
      out.push_back("replay: action " + id_text(id) + " at position " +
                    std::to_string(k) + " does not execute");
      return out;
    }
  }
  if (state.fingerprint() != outcome.final_state.fingerprint()) {
    out.push_back("replay: replayed state differs from final_state");
  }
  return out;
}

Problems check_partition(std::size_t n, const icecube::Outcome& outcome) {
  Problems out;
  std::vector<int> seen(n, 0);
  const auto count = [&](const std::vector<ActionId>& ids, const char* what) {
    for (ActionId id : ids) {
      if (id.index() >= n) {
        out.push_back(std::string(what) + " names unknown action " +
                      id_text(id.index()));
        continue;
      }
      ++seen[id.index()];
    }
  };
  count(outcome.schedule, "schedule");
  count(outcome.skipped, "skipped");
  count(outcome.cutset, "cutset");
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i] != 1) {
      out.push_back("partition: action " + id_text(i) + " appears " +
                    std::to_string(seen[i]) +
                    " times among scheduled/skipped/cut");
    }
  }
  return out;
}

Problems check_dependences(
    std::size_t n, const std::function<bool(std::size_t, std::size_t)>& depends,
    const icecube::Outcome& outcome) {
  Problems out;
  constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
  std::vector<std::size_t> pos(n, kAbsent);
  for (std::size_t k = 0; k < outcome.schedule.size(); ++k) {
    const std::size_t id = outcome.schedule[k].index();
    if (id < n) pos[id] = k;
  }
  for (std::size_t a = 0; a < n; ++a) {
    if (pos[a] == kAbsent) continue;
    for (std::size_t b = 0; b < n; ++b) {
      if (a == b || pos[b] == kAbsent || !depends(a, b)) continue;
      if (pos[a] > pos[b]) {
        out.push_back("dependence " + id_text(a) + " -> " + id_text(b) +
                      " violated by the schedule");
      }
    }
  }
  return out;
}

Problems check_fages(const icecube::Universe& initial, std::size_t claim_cells,
                     const FagesRun& run) {
  Problems out;
  const std::size_t cells = initial.size();
  std::vector<std::int64_t> stock(cells, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    stock[c] =
        initial.as<icecube::workload::FagesCell>(ObjectId(
                   static_cast<std::uint32_t>(c)))
            .value();
  }
  const std::vector<std::int64_t> capacity(
      stock.begin(), stock.begin() + static_cast<std::ptrdiff_t>(
                                         std::min(claim_cells, cells)));
  std::vector<std::int64_t> claimers(capacity.size(), 0);
  // Token cell -> uid of the task that produces it (each token cell has
  // exactly one producer in the family), and uid -> executed position.
  std::unordered_map<std::int64_t, std::size_t> executed_at;
  std::map<std::size_t, std::int64_t> producer_of;

  const auto cell_ok = [&](std::int64_t cell) {
    return cell >= 0 && static_cast<std::size_t>(cell) < cells;
  };
  for (std::size_t k = 0; k < run.executed.size(); ++k) {
    const icecube::Tag& tag = run.executed[k]->tag();
    if (tag.op != "fages" || tag.params.size() < 2) {
      out.push_back("executed action " + std::to_string(k) +
                    " is not a fages task");
      return out;
    }
    const std::int64_t uid = tag.params[0];
    const auto n_consume = static_cast<std::size_t>(tag.params[1]);
    if (2 + n_consume > tag.params.size()) {
      out.push_back("task " + std::to_string(uid) + " has a malformed tag");
      return out;
    }
    if (!executed_at.emplace(uid, k).second) {
      out.push_back("task " + std::to_string(uid) + " executed twice");
    }
    for (std::size_t i = 2; i < 2 + n_consume; ++i) {
      const std::int64_t cell = tag.params[i];
      if (!cell_ok(cell)) {
        out.push_back("task " + std::to_string(uid) + " names unknown cell");
        return out;
      }
      const auto c = static_cast<std::size_t>(cell);
      if (--stock[c] < 0) {
        out.push_back("cell " + std::to_string(c) + " goes negative at task " +
                      std::to_string(uid));
      }
      if (c < claimers.size()) ++claimers[c];
    }
    for (std::size_t i = 2 + n_consume; i < tag.params.size(); ++i) {
      const std::int64_t cell = tag.params[i];
      if (!cell_ok(cell)) {
        out.push_back("task " + std::to_string(uid) + " names unknown cell");
        return out;
      }
      ++stock[static_cast<std::size_t>(cell)];
      producer_of[static_cast<std::size_t>(cell)] = uid;
    }
  }
  // Producer order: a consumed token cell's producer ran earlier.
  for (std::size_t k = 0; k < run.executed.size(); ++k) {
    const icecube::Tag& tag = run.executed[k]->tag();
    const auto n_consume = static_cast<std::size_t>(tag.params[1]);
    for (std::size_t i = 2; i < 2 + n_consume; ++i) {
      const auto c = static_cast<std::size_t>(tag.params[i]);
      if (c < claim_cells) continue;
      const auto p = producer_of.find(c);
      if (p == producer_of.end()) {
        out.push_back("task " + std::to_string(tag.params[0]) +
                      " consumes cell " + std::to_string(c) +
                      " whose producer never executed");
        continue;
      }
      if (executed_at.at(p->second) >= k) {
        out.push_back("task " + std::to_string(tag.params[0]) +
                      " runs before its producer " +
                      std::to_string(p->second));
      }
    }
  }
  for (std::size_t c = 0; c < claimers.size(); ++c) {
    if (claimers[c] > capacity[c]) {
      out.push_back("claim cell " + std::to_string(c) + " has " +
                    std::to_string(claimers[c]) + " claimers over capacity " +
                    std::to_string(capacity[c]));
    }
  }
  if (run.final_state == nullptr || run.final_state->size() != cells) {
    out.push_back("final state has the wrong number of cells");
    return out;
  }
  for (std::size_t c = 0; c < cells; ++c) {
    const std::int64_t got =
        run.final_state
            ->as<icecube::workload::FagesCell>(
                ObjectId(static_cast<std::uint32_t>(c)))
            .value();
    if (got != stock[c]) {
      out.push_back("cell " + std::to_string(c) + " holds " +
                    std::to_string(got) + ", conservation gives " +
                    std::to_string(stock[c]));
    }
  }
  return out;
}

CanonicalMerge canonical_batch(
    const std::vector<icecube::ActionRecord>& records,
    const icecube::Outcome& outcome) {
  CanonicalMerge m;
  for (ActionId id : outcome.schedule) {
    m.executed.push_back(icecube::stream_priority(records[id.index()]));
  }
  for (ActionId id : outcome.skipped) {
    m.not_executed.push_back(icecube::stream_priority(records[id.index()]));
  }
  for (ActionId id : outcome.cutset) {
    m.not_executed.push_back(icecube::stream_priority(records[id.index()]));
  }
  std::sort(m.not_executed.begin(), m.not_executed.end());
  m.state_digest = outcome.final_state.fingerprint_hash();
  return m;
}

CanonicalMerge canonical_stream(
    const std::vector<icecube::ActionRecord>& records,
    const icecube::StreamResult& result) {
  CanonicalMerge m;
  for (std::size_t i = 0; i < result.sequence.size(); ++i) {
    const std::uint64_t key =
        icecube::stream_priority(records[result.sequence[i].index()]);
    if (result.status[i] == icecube::RunStatus::kExecuted) {
      m.executed.push_back(key);
    } else {
      m.not_executed.push_back(key);
    }
  }
  std::sort(m.not_executed.begin(), m.not_executed.end());
  m.state_digest = result.outcome.final_state.fingerprint_hash();
  return m;
}

Problems check_same_merge(const CanonicalMerge& streamed,
                          const CanonicalMerge& batch) {
  Problems out;
  if (streamed.executed != batch.executed) {
    out.push_back("streamed schedule differs from the batch merge (" +
                  std::to_string(streamed.executed.size()) + " vs " +
                  std::to_string(batch.executed.size()) + " executed)");
  }
  if (streamed.not_executed != batch.not_executed) {
    out.push_back("streamed non-executed set differs from the batch merge");
  }
  if (streamed.state_digest != batch.state_digest) {
    out.push_back("streamed final state differs from the batch merge");
  }
  return out;
}

Problems check_commits(std::size_t ingested,
                       const std::vector<icecube::CommitEntry>& committed,
                       const icecube::StreamResult& result) {
  Problems out;
  // Final status per action id; ids outside the merge stay unknown.
  constexpr std::uint8_t kUnknown = 0xFF;
  std::vector<std::uint8_t> final_status(ingested, kUnknown);
  for (std::size_t i = 0; i < result.sequence.size(); ++i) {
    const std::size_t id = result.sequence[i].index();
    if (id < ingested) {
      final_status[id] = static_cast<std::uint8_t>(result.status[i]);
    }
  }
  std::vector<int> times(ingested, 0);
  std::size_t contradictions = 0;
  for (const icecube::CommitEntry& e : committed) {
    const std::size_t id = e.id.index();
    if (id >= ingested) {
      out.push_back("commit names unknown action " + id_text(id));
      continue;
    }
    ++times[id];
    if (final_status[id] != static_cast<std::uint8_t>(e.status)) {
      ++contradictions;
    }
  }
  std::size_t missing = 0;
  std::size_t repeated = 0;
  for (int t : times) {
    if (t == 0) ++missing;
    if (t > 1) ++repeated;
  }
  if (missing > 0) {
    out.push_back(std::to_string(missing) + " action(s) never committed");
  }
  if (repeated > 0) {
    out.push_back(std::to_string(repeated) + " action(s) committed twice");
  }
  if (contradictions > 0) {
    out.push_back(std::to_string(contradictions) +
                  " commit(s) contradict the final schedule");
  }
  return out;
}

Problems check_ls_not_worse(double ls_cost, double greedy_cost) {
  if (ls_cost <= greedy_cost) return {};
  return {"local search cost " + std::to_string(ls_cost) +
          " is worse than greedy " + std::to_string(greedy_cost)};
}

Problems check_anti_entropy(const std::vector<SiteFinal>& sites,
                            const std::vector<std::string>& performed_uids,
                            std::int64_t expected_counter) {
  Problems out;
  if (sites.empty()) return {"no sites"};
  for (const SiteFinal& s : sites) {
    if (s.fingerprint != sites.front().fingerprint) {
      out.push_back("site " + s.name + " committed state differs from " +
                    sites.front().name);
    }
    if (s.stable_length != s.history_uids.size()) {
      out.push_back("site " + s.name + " has " +
                    std::to_string(s.history_uids.size() - s.stable_length) +
                    " unstable history entries");
    }
    std::map<std::string, int> seen;
    for (const std::string& uid : s.history_uids) ++seen[uid];
    for (const std::string& uid : performed_uids) {
      const auto it = seen.find(uid);
      const int n = it == seen.end() ? 0 : it->second;
      if (n != 1) {
        out.push_back("site " + s.name + " holds action " + uid + " " +
                      std::to_string(n) + " times");
      }
    }
    if (s.history_uids.size() != performed_uids.size()) {
      out.push_back("site " + s.name + " history has " +
                    std::to_string(s.history_uids.size()) + " entries for " +
                    std::to_string(performed_uids.size()) + " performed");
    }
    if (s.counter != expected_counter) {
      out.push_back("site " + s.name + " counter " +
                    std::to_string(s.counter) + " != expected " +
                    std::to_string(expected_counter));
    }
  }
  return out;
}

}  // namespace perfbench
