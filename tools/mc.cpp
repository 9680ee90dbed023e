// mc — exhaustively model-check the gossip + commitment protocol on tiny
// configurations, with partial-order reduction and minimized replayable
// counterexamples.
//
// Examples:
//
//   # exhaustively explore a 3-site, 3-action config to depth 12
//   mc --sites 3 --actions 3 --depth 12
//
//   # the same space without sleep sets / state dedup (bench baseline)
//   mc --sites 3 --actions 3 --depth 12 --no-reduction
//
//   # hunt a seeded historical bug; write the minimized counterexample as
//   # a replayable capture, then reproduce it bit-exactly
//   mc --sites 3 --actions 2 --depth 10 --mutant plurality-ignore-unheard
//      --counterexample bug.icap
//   chaos --replay-capture bug.icap
//
//   # emit a counterexample-free convergent witness capture for a config
//   mc --sites 3 --actions 3 --emit-witness witness.icap
//
// Exit status: 0 when the explored space is clean, 1 when a violation was
// found (the minimized counterexample is printed and optionally written),
// 2 on bad usage. A clean-but-budget-exhausted exploration still exits 0;
// the report says complete=false.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "arg_parse.hpp"
#include "capture/replay_engine.hpp"
#include "mc/explorer.hpp"
#include "mc/minimize.hpp"
#include "mc/schedule.hpp"

namespace {

using namespace icecube;
using namespace icecube::tools;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --sites N          group size, 2..8 (default 3)\n"
      "  --actions N        total workload actions, round-robin (default 3)\n"
      "  --seed N           workload content seed (default 1)\n"
      "  --depth N          max choices per explored sequence (default 10)\n"
      "  --states-budget N  max transitions to apply (default 200000)\n"
      "  --no-reduction     disable sleep sets + transposition table\n"
      "  --no-commit        disable the commitment layer\n"
      "  --no-algebra       skip merge-law checks at quiescent states\n"
      "  --withhold         add vote-withholding step choices\n"
      "  --drops N          message-loss choice budget (default 0)\n"
      "  --dups N           duplication choice budget (default 0)\n"
      "  --crashes N        crash/restart choice budget (default 0)\n"
      "  --cuts N           partition choice budget (default 0)\n"
      "  --mutant M         seed a historical protocol bug (name or id;\n"
      "                     see --list-mutants)\n"
      "  --list-mutants     print the seedable protocol mutants and exit\n"
      "  --counterexample F write the minimized counterexample as a\n"
      "                     replayable capture (chaos --replay-capture F)\n"
      "  --no-minimize      keep the raw counterexample trace\n"
      "  --emit-witness F   write a convergent counterexample-free capture\n"
      "                     for this config and exit\n"
      "  --json PATH        write the exploration report as JSON\n",
      argv0);
}

bool parse_mutant(const char* s, ProtocolMutant& out) {
  for (std::uint8_t m = 0; m <= kProtocolMutantMax; ++m) {
    const auto mutant = static_cast<ProtocolMutant>(m);
    if (to_string(mutant) == s) {
      out = mutant;
      return true;
    }
  }
  std::uint64_t id = 0;
  if (parse_u64(s, id) && id <= kProtocolMutantMax) {
    out = static_cast<ProtocolMutant>(id);
    return true;
  }
  return false;
}

void list_mutants() {
  std::printf("seedable protocol mutants (historical, fixed bugs):\n");
  for (std::uint8_t m = 1; m <= kProtocolMutantMax; ++m) {
    const auto mutant = static_cast<ProtocolMutant>(m);
    std::printf("  %u  %s\n", static_cast<unsigned>(m),
                std::string(to_string(mutant)).c_str());
  }
}

bool write_json_file(const std::string& path, const std::string& json) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return false;
  }
  out << json << "\n";
  return true;
}

/// --emit-witness: drive the config to convergence, write the capture,
/// then prove it replays bit-exactly before reporting success.
int emit_witness(const mc::McConfig& config, const std::string& path) {
  const std::vector<mc::Choice> schedule = mc::witness_schedule(config);
  if (schedule.empty()) {
    std::fprintf(stderr,
                 "emit-witness: config does not settle under the greedy "
                 "schedule\n");
    return 2;
  }
  std::string error;
  if (!write_mc_capture_file(path, config, schedule, &error)) {
    std::fprintf(stderr, "emit-witness: %s\n", error.c_str());
    return 2;
  }
  const ReplayResult replay = replay_capture_file(path);
  if (!replay.faithful()) {
    std::fprintf(stderr, "emit-witness: capture does not replay: %s\n",
                 replay.error.ok() ? "divergence"
                                   : replay.error.message().c_str());
    return 1;
  }
  std::printf("witness: %zu choice(s), settled, capture %s (replay verified)\n",
              schedule.size(), path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mc::McConfig config;
  mc::ExploreOptions options;
  bool minimize = true;
  std::string counterexample_path;
  std::string witness_path;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](int count) {
      if (i + count >= argc) {
        std::fprintf(stderr, "%s needs %d argument(s)\n", arg.c_str(), count);
        // Single-threaded CLI: exiting from the arg parser is safe.
        std::exit(2);  // NOLINT(concurrency-mt-unsafe)
      }
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--sites") {
      need(1);
      ok = parse_size(argv[++i], config.sites) && config.sites >= 2 &&
           config.sites <= 8;
    } else if (arg == "--actions") {
      need(1);
      ok = parse_size(argv[++i], config.actions);
    } else if (arg == "--seed") {
      need(1);
      ok = parse_u64(argv[++i], config.seed);
    } else if (arg == "--depth") {
      need(1);
      ok = parse_size(argv[++i], options.depth) && options.depth > 0;
    } else if (arg == "--states-budget") {
      need(1);
      ok = parse_size(argv[++i], options.states_budget) &&
           options.states_budget > 0;
    } else if (arg == "--no-reduction") {
      options.reduction = false;
    } else if (arg == "--no-commit") {
      config.commitment = false;
    } else if (arg == "--no-algebra") {
      config.algebra = false;
    } else if (arg == "--withhold") {
      config.withhold = true;
    } else if (arg == "--drops") {
      need(1);
      ok = parse_size(argv[++i], config.max_drops);
    } else if (arg == "--dups") {
      need(1);
      ok = parse_size(argv[++i], config.max_dups);
    } else if (arg == "--crashes") {
      need(1);
      ok = parse_size(argv[++i], config.max_crashes);
    } else if (arg == "--cuts") {
      need(1);
      ok = parse_size(argv[++i], config.max_cuts);
    } else if (arg == "--mutant") {
      need(1);
      ok = parse_mutant(argv[++i], config.mutant);
    } else if (arg == "--list-mutants") {
      list_mutants();
      return 0;
    } else if (arg == "--counterexample") {
      need(1);
      counterexample_path = argv[++i];
    } else if (arg == "--no-minimize") {
      minimize = false;
    } else if (arg == "--emit-witness") {
      need(1);
      witness_path = argv[++i];
    } else if (arg == "--json") {
      need(1);
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "bad value for %s\n", arg.c_str());
      return 2;
    }
  }

  if (!witness_path.empty()) return emit_witness(config, witness_path);

  mc::McReport report = mc::explore(config, options);

  std::printf(
      "explored: %zu transition(s), %zu distinct state(s), depth %zu, "
      "reduction %s\n",
      report.transitions, report.distinct_states, options.depth,
      options.reduction ? "on" : "off");
  if (options.reduction) {
    std::printf("pruned: %zu tt hit(s), %zu sleep-set skip(s)\n",
                report.tt_hits, report.sleep_skips);
  }
  std::printf("frontier: widest enabled set %zu\n", report.max_frontier);
  if (config.mutant != ProtocolMutant::kNone) {
    std::printf("mutant: %s\n",
                std::string(to_string(config.mutant)).c_str());
  }

  if (report.counterexample) {
    mc::McCounterexample& cex = *report.counterexample;
    std::printf("VIOLATION after %zu choice(s):\n", cex.trace.size());
    for (const Violation& v : cex.violations) {
      std::printf("  %s\n", v.message().c_str());
    }
    if (minimize) {
      cex.trace = mc::minimize_trace(config, cex.trace);
      std::printf("minimized to %zu choice(s):\n", cex.trace.size());
    } else {
      std::printf("raw trace (%zu choice(s)):\n", cex.trace.size());
    }
    for (const mc::Choice& c : cex.trace) {
      std::printf("  %s\n", c.describe().c_str());
    }
    if (!counterexample_path.empty()) {
      std::string error;
      if (!write_mc_capture_file(counterexample_path, config, cex.trace,
                                 &error)) {
        std::fprintf(stderr, "counterexample: %s\n", error.c_str());
        return 2;
      }
      std::printf("counterexample: %s (chaos --replay-capture)\n",
                  counterexample_path.c_str());
    }
    if (!json_path.empty() && !write_json_file(json_path, report.to_json())) {
      return 2;
    }
    return 1;
  }

  std::printf(report.complete
                  ? "state space exhausted to depth %zu: no violations\n"
                  : "budget exhausted after %zu transition(s): no "
                    "violations in the explored prefix\n",
              report.complete ? options.depth : report.transitions);
  if (!json_path.empty() && !write_json_file(json_path, report.to_json())) {
    return 2;
  }
  return 0;
}
