// stream — run the online streaming reconciler daemon over a Fages
// workload and report sustained ingest throughput, commit latency and the
// incremental-solver counters.
//
// Examples:
//
//   # live mode: threaded daemon, 100k actions, real latency budget
//   stream --replicas 4 --tasks 25000 --budget-us 500 --json stream.json
//
//   # perf gates for CI (exit 1 when missed)
//   stream --tasks 5000 --min-ingest 200000 --max-p99-ms 50
//
//   # incident workflow: record a deterministic capture, replay it
//   stream --tasks 20 --arrival shuffled --batch 8 --capture caps
//   stream --replay-capture caps/stream-seed-1.icap
//
// Two run modes share the flags:
//
//  * live (default): the threaded StreamDaemon — a producer thread (main)
//    submits through the SPSC ring while the consumer solves under the
//    epoch latency budget. This is the mode that measures.
//  * captured (--capture DIR): a deterministic single-threaded run with
//    the epoch budget forced to zero, recorded frame-by-frame into
//    DIR/stream-seed-N.icap; `--replay-capture` re-drives it bit-exactly.
//
// Exit status: 0 on success (and all gates met), 1 on a missed gate or
// divergent replay, 2 on unusable input.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "arg_parse.hpp"
#include "capture/replay_engine.hpp"
#include "capture/wire_log_writer.hpp"
#include "stream/daemon.hpp"
#include "stream/stream_spec_codec.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace {

using namespace icecube;
using namespace icecube::tools;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --replicas N      divergent replicas (default 3)\n"
      "  --tasks N         tasks per replica (default 40)\n"
      "  --density D       intra-log dependency density (default 1.5)\n"
      "  --conflict P      cross-replica conflict ratio (default 0.25)\n"
      "  --resources N     shared claim cells (default 8)\n"
      "  --capacity N      per-resource capacity (default 1)\n"
      "  --seed N          workload seed (default 1)\n"
      "  --backend K       greedy | ls (default greedy)\n"
      "  --arrival A       flatten | roundrobin | shuffled (default\n"
      "                    flatten)\n"
      "  --arrival-seed N  interleaving seed for --arrival shuffled\n"
      "  --batch N         arrivals per epoch, 0 = solve only at finish\n"
      "                    (default 64)\n"
      "  --quiescence N    undisturbed epochs before a component's prefix\n"
      "                    commits (default 1)\n"
      "  --budget-us N     per-epoch solve budget; late components degrade\n"
      "                    to greedy (live mode only; default 0 = none)\n"
      "  --json PATH       write the report as JSON\n"
      "  --min-ingest R    gate: sustained ingest must reach R actions/sec\n"
      "  --max-p99-ms MS   gate: p99 commit latency must stay under MS\n"
      "  --capture DIR     record a deterministic run into\n"
      "                    DIR/stream-seed-N.icap (forces budget 0)\n"
      "  --replay-capture F  re-drive the run recorded in capture F and\n"
      "                    verify it frame-for-frame + trace-CRC\n",
      argv0);
}

void write_json_file(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << json << "\n";
}

int run_replay(const std::string& path, const std::string& json_path) {
  const ReplayResult result = replay_capture_file(path);
  write_json_file(json_path, result.to_json());
  if (!result.error.ok()) {
    std::fprintf(stderr, "replay-capture: %s\n",
                 result.error.message().c_str());
    return 2;
  }
  std::printf("replayed %zu/%zu recorded frame(s)", result.frames_compared,
              result.recorded_frames);
  if (result.crc_checked) {
    std::printf(", trace crc %08x %s", result.recorded_crc,
                result.crc_match ? "reproduced" : "NOT reproduced");
  }
  std::printf("\n%s\n", result.faithful() ? "replay is bit-exact"
                                          : "REPLAY DIVERGED");
  return result.faithful() ? 0 : 1;
}

struct RunNumbers {
  double ingest_rate = 0.0;  ///< sustained actions/sec over the whole run
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double wall_seconds = 0.0;
  StreamCounters counters;
  SearchStats stats;
  std::size_t executed = 0;
  std::size_t skipped = 0;
};

std::string report_json(const StreamSpec& spec, const RunNumbers& n,
                        const char* mode) {
  std::string json = "{";
  json += "\"mode\":\"" + std::string(mode) + "\"";
  json += ",\"backend\":\"" + std::string(to_string(spec.backend)) + "\"";
  json += ",\"arrival\":\"" + std::string(to_string(spec.arrival)) + "\"";
  json += ",\"replicas\":" + std::to_string(spec.workload.replicas);
  json += ",\"tasks_per_replica\":" +
          std::to_string(spec.workload.tasks_per_replica);
  json += ",\"batch\":" + std::to_string(spec.batch);
  json += ",\"actions\":" + std::to_string(n.counters.ingested);
  json += ",\"wall_seconds\":" + std::to_string(n.wall_seconds);
  json += ",\"ingest_rate\":" + std::to_string(n.ingest_rate);
  json += ",\"p50_commit_ms\":" + std::to_string(n.p50_ms);
  json += ",\"p99_commit_ms\":" + std::to_string(n.p99_ms);
  json += ",\"epochs\":" + std::to_string(n.counters.epochs);
  json += ",\"degraded_epochs\":" + std::to_string(n.counters.degraded_epochs);
  json += ",\"fast_appends\":" + std::to_string(n.counters.fast_appends);
  json += ",\"full_resolves\":" + std::to_string(n.counters.full_resolves);
  json += ",\"commit_violations\":" +
          std::to_string(n.counters.commit_violations);
  json += ",\"max_commit_lag\":" + std::to_string(n.counters.max_commit_lag);
  json += ",\"pairs_evaluated\":" +
          std::to_string(n.stats.constraint_pairs_evaluated);
  json += ",\"executed\":" + std::to_string(n.executed);
  json += ",\"skipped\":" + std::to_string(n.skipped);
  json += "}";
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  StreamSpec spec;
  std::uint64_t budget_us = 0;
  std::string json_path;
  std::string capture_dir;
  std::string replay_path;
  double min_ingest = 0.0;
  double max_p99_ms = 0.0;

  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const auto need = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs %s\n", argv[i], what);
        // Single-threaded CLI: exiting from the arg parser is safe.
        std::exit(2);  // NOLINT(concurrency-mt-unsafe)
      }
      return argv[++i];
    };
    std::uint64_t v = 0;
    double d = 0.0;
    if (is("--help") || is("-h")) {
      usage(argv[0]);
      return 0;
    } else if (is("--replicas") && parse_u64(need("N"), v)) {
      spec.workload.replicas = static_cast<int>(v);
    } else if (is("--tasks") && parse_u64(need("N"), v)) {
      spec.workload.tasks_per_replica = static_cast<int>(v);
    } else if (is("--density") && parse_double(need("D"), d)) {
      spec.workload.dependency_density = d;
    } else if (is("--conflict") && parse_double(need("P"), d)) {
      spec.workload.conflict_ratio = d;
    } else if (is("--resources") && parse_u64(need("N"), v)) {
      spec.workload.shared_resources = static_cast<int>(v);
    } else if (is("--capacity") && parse_u64(need("N"), v)) {
      spec.workload.resource_capacity = static_cast<int>(v);
    } else if (is("--seed") && parse_u64(need("N"), v)) {
      spec.workload.seed = v;
    } else if (is("--backend")) {
      const char* name = need("K");
      if (std::strcmp(name, "greedy") == 0) {
        spec.backend = SolverKind::kGreedy;
      } else if (std::strcmp(name, "ls") == 0) {
        spec.backend = SolverKind::kLocalSearch;
      } else {
        std::fprintf(stderr, "unknown backend '%s'\n", name);
        return 2;
      }
    } else if (is("--arrival")) {
      const char* name = need("A");
      if (std::strcmp(name, "flatten") == 0) {
        spec.arrival = StreamArrival::kFlatten;
      } else if (std::strcmp(name, "roundrobin") == 0) {
        spec.arrival = StreamArrival::kRoundRobin;
      } else if (std::strcmp(name, "shuffled") == 0) {
        spec.arrival = StreamArrival::kShuffled;
      } else {
        std::fprintf(stderr, "unknown arrival '%s'\n", name);
        return 2;
      }
    } else if (is("--arrival-seed") && parse_u64(need("N"), v)) {
      spec.arrival_seed = v;
    } else if (is("--batch") && parse_u64(need("N"), v)) {
      spec.batch = static_cast<std::uint32_t>(v);
    } else if (is("--quiescence") && parse_u64(need("N"), v)) {
      spec.commit_quiescence = v;
    } else if (is("--budget-us") && parse_u64(need("N"), v)) {
      budget_us = v;
    } else if (is("--json")) {
      json_path = need("PATH");
    } else if (is("--capture")) {
      capture_dir = need("DIR");
    } else if (is("--replay-capture")) {
      replay_path = need("F");
    } else if (is("--min-ingest") && parse_double(need("R"), d)) {
      min_ingest = d;
    } else if (is("--max-p99-ms") && parse_double(need("MS"), d)) {
      max_p99_ms = d;
    } else {
      std::fprintf(stderr, "bad argument: %s\n", argv[i]);
      usage(argv[0]);
      return 2;
    }
  }

  if (!replay_path.empty()) return run_replay(replay_path, json_path);

  RunNumbers numbers;
  const char* mode = "live";

  if (!capture_dir.empty()) {
    mode = "captured";
    std::error_code ec;
    std::filesystem::create_directories(capture_dir, ec);
    const std::string path = capture_dir + "/stream-seed-" +
                             std::to_string(spec.workload.seed) + ".icap";
    CaptureWriterOptions options;
    options.durability = CaptureDurability::kPerFrame;
    WireLogWriter writer(path, options);
    if (!writer.ok()) {
      std::fprintf(stderr, "cannot open capture %s: %s\n", path.c_str(),
                   writer.error().message().c_str());
      return 2;
    }
    const std::uint64_t t0 = stream_now_ns();
    const StreamRunReport report = run_stream_captured(spec, writer);
    numbers.wall_seconds =
        static_cast<double>(stream_now_ns() - t0) * 1e-9;
    writer.close();
    numbers.counters = report.counters;
    numbers.stats = report.stats;
    numbers.executed = report.result.outcome.schedule.size();
    numbers.skipped = report.result.outcome.skipped.size();
    std::printf("captured %llu action(s) -> %s\n",
                static_cast<unsigned long long>(report.counters.ingested),
                path.c_str());
  } else {
    const workload::Generated gen = workload::fages_workload(spec.workload);
    StreamOptions options;
    options.backend = spec.backend;
    options.commit_quiescence = spec.commit_quiescence;
    options.epoch_budget_us = budget_us;
    const std::size_t max_batch = spec.batch == 0 ? 4096 : spec.batch;

    // Pre-materialize the arrival order so the submit loop measures the
    // ring + daemon, not the workload generator.
    std::vector<std::pair<LogId, ActionPtr>> arrivals;
    {
      std::vector<std::size_t> next(gen.logs.size(), 0);
      std::size_t total = 0;
      for (const Log& log : gen.logs) total += log.size();
      arrivals.reserve(total);
      Rng rng(spec.arrival_seed);
      for (std::size_t taken = 0; taken < total; ++taken) {
        std::size_t pick_log = 0;
        switch (spec.arrival) {
          case StreamArrival::kFlatten:
            while (next[pick_log] >= gen.logs[pick_log].size()) ++pick_log;
            break;
          case StreamArrival::kRoundRobin:
            pick_log = taken % gen.logs.size();
            while (next[pick_log] >= gen.logs[pick_log].size()) {
              pick_log = (pick_log + 1) % gen.logs.size();
            }
            break;
          case StreamArrival::kShuffled: {
            std::uint64_t pick = rng.below(total - taken);
            for (pick_log = 0;; ++pick_log) {
              const std::size_t rem =
                  gen.logs[pick_log].size() - next[pick_log];
              if (pick < rem) break;
              pick -= rem;
            }
            break;
          }
        }
        arrivals.emplace_back(LogId(static_cast<std::uint32_t>(pick_log)),
                              gen.logs[pick_log].ptr(next[pick_log]++));
      }
    }

    StreamDaemon daemon(gen.initial, options, max_batch);
    const std::uint64_t t0 = stream_now_ns();
    for (auto& [log, action] : arrivals) {
      daemon.submit(log, std::move(action));
    }
    const StreamResult result = daemon.finish();
    numbers.wall_seconds = static_cast<double>(stream_now_ns() - t0) * 1e-9;
    numbers.counters = daemon.reconciler().counters();
    numbers.stats = daemon.reconciler().stats();
    numbers.p50_ms = daemon.reconciler().commit_latency().quantile_ms(0.50);
    numbers.p99_ms = daemon.reconciler().commit_latency().quantile_ms(0.99);
    numbers.executed = result.outcome.schedule.size();
    numbers.skipped = result.outcome.skipped.size();
  }

  if (numbers.wall_seconds > 0.0) {
    numbers.ingest_rate =
        static_cast<double>(numbers.counters.ingested) / numbers.wall_seconds;
  }

  std::printf(
      "%llu actions in %.3fs  (%.0f actions/sec)\n"
      "commit latency p50 %.3f ms, p99 %.3f ms\n"
      "epochs %llu (degraded %llu), fast appends %llu, full re-solves %llu\n"
      "committed %llu, violations %llu, max lag %llu, pairs %llu\n"
      "schedule: %zu executed, %zu skipped\n",
      static_cast<unsigned long long>(numbers.counters.ingested),
      numbers.wall_seconds, numbers.ingest_rate, numbers.p50_ms,
      numbers.p99_ms,
      static_cast<unsigned long long>(numbers.counters.epochs),
      static_cast<unsigned long long>(numbers.counters.degraded_epochs),
      static_cast<unsigned long long>(numbers.counters.fast_appends),
      static_cast<unsigned long long>(numbers.counters.full_resolves),
      static_cast<unsigned long long>(numbers.counters.committed),
      static_cast<unsigned long long>(numbers.counters.commit_violations),
      static_cast<unsigned long long>(numbers.counters.max_commit_lag),
      static_cast<unsigned long long>(
          numbers.stats.constraint_pairs_evaluated),
      numbers.executed, numbers.skipped);

  write_json_file(json_path, report_json(spec, numbers, mode));

  int status = 0;
  if (min_ingest > 0.0 && numbers.ingest_rate < min_ingest) {
    std::fprintf(stderr, "GATE MISSED: ingest %.0f < %.0f actions/sec\n",
                 numbers.ingest_rate, min_ingest);
    status = 1;
  }
  if (max_p99_ms > 0.0 && numbers.p99_ms > max_p99_ms) {
    std::fprintf(stderr, "GATE MISSED: p99 %.3f ms > %.3f ms\n",
                 numbers.p99_ms, max_p99_ms);
    status = 1;
  }
  return status;
}
