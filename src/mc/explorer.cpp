#include "mc/explorer.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "util/format.hpp"

namespace icecube::mc {

namespace {

/// Sleep/done sets are tiny (bounded by one frontier), so sorted vectors
/// beat hash sets for both lookup and the subset test the TT needs.
using ChoiceSet = std::vector<Choice>;

bool contains(const ChoiceSet& set, const Choice& c) {
  return std::find(set.begin(), set.end(), c) != set.end();
}

std::vector<std::uint32_t> keys_of(const ChoiceSet& set) {
  std::vector<std::uint32_t> keys;
  keys.reserve(set.size());
  for (const Choice& c : set) keys.push_back(c.key());
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// a ⊆ b over sorted key vectors.
bool subset(const std::vector<std::uint32_t>& a,
            const std::vector<std::uint32_t>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

// Sleep-set soundness (Godefroid's done-set formulation). From state s
// the branches are explored in canonical order; after branch c completes,
// c joins the done set. A successor state via c inherits
//
//   sleep' = { t in sleep ∪ done, t != c : independent(t, c) }
//
// and skips its sleeping choices. Why nothing is lost: take a sleeping t
// at the child s--c-->s'. Either t was in s's *done* set — every behaviour
// starting t from s' equals (by independence, t·c = c·t from s) a
// behaviour already explored under the earlier branch t — or t was in s's
// own sleep set, and the argument recurses to an ancestor. Dependent
// choices never enter sleep', so any transition that could produce a new
// state stays explored. The transposition table adds state-level pruning
// on top: an entry records under which sleep set and remaining depth a
// digest was explored, and a revisit is skipped only when some recorded
// visit was at least as deep with a sleep set no larger — i.e. the
// recorded visit explored a superset of what this visit would.
class Explorer {
 public:
  Explorer(const McConfig& config, const ExploreOptions& options,
           McReport& report)
      : options_(options), report_(report), root_(config) {}

  void run() {
    ChoiceSet empty_sleep;
    (void)dfs(root_, options_.depth, empty_sleep);
    report_.complete = !report_.budget_exhausted && report_.clean();
  }

 private:
  struct SeenEntry {
    std::size_t remaining = 0;
    std::vector<std::uint32_t> sleep_keys;
  };

  /// True iff a recorded visit covers (digest, remaining, sleep).
  bool covered(std::uint64_t digest, std::size_t remaining,
               const std::vector<std::uint32_t>& sleep_keys) {
    const auto it = table_.find(digest);
    if (it == table_.end()) return false;
    for (const SeenEntry& e : it->second) {
      if (e.remaining >= remaining && subset(e.sleep_keys, sleep_keys)) {
        return true;
      }
    }
    return false;
  }

  void remember(std::uint64_t digest, std::size_t remaining,
                std::vector<std::uint32_t> sleep_keys) {
    auto& entries = table_[digest];
    if (entries.empty()) ++report_.distinct_states;
    // Drop entries the new visit dominates, to keep the list short.
    std::erase_if(entries, [&](const SeenEntry& e) {
      return remaining >= e.remaining && subset(sleep_keys, e.sleep_keys);
    });
    entries.push_back({remaining, std::move(sleep_keys)});
  }

  /// Returns false to abort the whole search (violation or budget).
  bool dfs(McWorld& world, std::size_t remaining, const ChoiceSet& sleep) {
    if (options_.reduction) {
      auto sleep_keys = keys_of(sleep);
      if (covered(world.digest(), remaining, sleep_keys)) {
        ++report_.tt_hits;
        return true;
      }
      remember(world.digest(), remaining, std::move(sleep_keys));
    }
    if (remaining == 0) return true;

    const std::vector<Choice> choices = world.enabled();
    report_.max_frontier = std::max(report_.max_frontier, choices.size());

    ChoiceSet done;
    for (const Choice& choice : choices) {
      if (options_.reduction && contains(sleep, choice)) {
        ++report_.sleep_skips;
        continue;
      }
      if (report_.transitions >= options_.states_budget) {
        report_.budget_exhausted = true;
        return false;
      }

      McWorld child(world);
      ++report_.transitions;
      path_.push_back(choice);
      if (!child.apply(choice)) {
        // Enumerated choices always apply; tolerate gracefully anyway.
        path_.pop_back();
        continue;
      }
      if (child.violated() ||
          (child.config().algebra && child.quiescent() &&
           child.check_algebra().has_value())) {
        report_.counterexample = {path_, child.violations()};
        return false;
      }

      ChoiceSet child_sleep;
      if (options_.reduction) {
        for (const Choice& t : sleep) {
          if (t == choice || !independent(t, choice)) continue;
          child_sleep.push_back(t);
        }
        for (const Choice& t : done) {
          if (t == choice || !independent(t, choice)) continue;
          child_sleep.push_back(t);
        }
      }
      if (!dfs(child, remaining - 1, child_sleep)) return false;
      path_.pop_back();
      done.push_back(choice);
    }
    return true;
  }

  const ExploreOptions options_;
  McReport& report_;
  McWorld root_;
  std::vector<Choice> path_;
  std::unordered_map<std::uint64_t, std::vector<SeenEntry>> table_;
};

}  // namespace

McReport explore(const McConfig& config, const ExploreOptions& options) {
  McReport report;
  report.config = config;
  report.options = options;
  ScopedProtocolMutant guard(config.mutant);
  Explorer explorer(config, options, report);
  explorer.run();
  return report;
}

std::string McReport::to_json() const {
  std::string out = "{";
  const auto field = [&out](const std::string& key,
                            const std::string& value, bool quote) {
    if (out.size() > 1) out += ",";
    out += "\"" + key + "\":";
    out += quote ? "\"" + value + "\"" : value;
  };
  field("sites", std::to_string(config.sites), false);
  field("actions", std::to_string(config.actions), false);
  field("seed", std::to_string(config.seed), false);
  field("commitment", config.commitment ? "true" : "false", false);
  field("algebra", config.algebra ? "true" : "false", false);
  field("withhold", config.withhold ? "true" : "false", false);
  field("mutant", std::string(to_string(config.mutant)), true);
  field("depth", std::to_string(options.depth), false);
  field("states_budget", std::to_string(options.states_budget), false);
  field("reduction", options.reduction ? "true" : "false", false);
  field("transitions", std::to_string(transitions), false);
  field("distinct_states", std::to_string(distinct_states), false);
  field("tt_hits", std::to_string(tt_hits), false);
  field("sleep_skips", std::to_string(sleep_skips), false);
  field("max_frontier", std::to_string(max_frontier), false);
  field("complete", complete ? "true" : "false", false);
  field("budget_exhausted", budget_exhausted ? "true" : "false", false);
  field("clean", clean() ? "true" : "false", false);

  std::string cx = "null";
  if (counterexample) {
    cx = "{\"trace\":[";
    for (std::size_t i = 0; i < counterexample->trace.size(); ++i) {
      if (i > 0) cx += ",";
      cx += "\"" + counterexample->trace[i].describe() + "\"";
    }
    cx += "],\"violations\":[";
    for (std::size_t i = 0; i < counterexample->violations.size(); ++i) {
      if (i > 0) cx += ",";
      cx += "\"" + json_escape(counterexample->violations[i].message()) +
            "\"";
    }
    cx += "]}";
  }
  field("counterexample", cx, false);
  out += "}";
  return out;
}

}  // namespace icecube::mc
