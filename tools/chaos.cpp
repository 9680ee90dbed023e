// chaos — run deterministic network-chaos scenarios against the gossip
// protocol and report convergence + invariant results.
//
// Examples:
//
//   # one seed, defaults (4 sites, light workload, perfect network)
//   chaos --seed 7
//
//   # a 500-seed sweep under loss, corruption, duplication, random
//   # partitions and crash/recovery; machine-readable output
//   chaos --seeds 500 --sites 6 --lose 0.05 --corrupt 0.05
//         --duplicate 0.05 --partition 0.05 --site-down 0.05
//         --json chaos.json
//
//   # a scheduled partition that isolates s0+s1 from s2+s3 until t=120,
//   # plus a crash/restart of s3
//   chaos --sites 4 --cut s0 s2 10 120 --cut s0 s3 10 120
//         --cut s1 s2 10 120 --cut s1 s3 10 120 --crash s3 30 80
//
//   # incident workflow: capture a sweep, replay one capture bit-exactly,
//   # bisect to event 500, diff two captures
//   chaos --seeds 100 --lose 0.05 --capture caps
//   chaos --replay-capture caps/seed-41.icap
//   chaos --replay-capture caps/seed-41.icap --replay-stop 500
//   chaos --audit-diff caps/seed-41.icap other/seed-41.icap
//
// Exit status is 0 iff every run converged with zero invariant
// violations (for replay/diff modes: iff the capture replayed faithfully /
// the captures are identical; 1 on divergence, 2 on unreadable input); a
// failing seed prints its spec so the identical event sequence can be
// replayed (same seed + flags => same trace CRC), and with --failures its
// capture is written out for offline replay.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "arg_parse.hpp"
#include "capture/audit_diff.hpp"
#include "capture/replay_engine.hpp"
#include "capture/wire_log_writer.hpp"
#include "simnet/chaos.hpp"

namespace {

using namespace icecube;
using namespace icecube::tools;

void usage(const char* argv0) {
  std::printf(
      "usage: %s [options]\n"
      "  --seed N          first seed (default 1)\n"
      "  --seeds N         number of consecutive seeds to run (default 1)\n"
      "  --sites N         group size, >= 2 (default 4)\n"
      "  --actions N       workload actions per site (default 6)\n"
      "  --interval N      ticks between a site's gossip timers (default 4)\n"
      "  --budget N        step budget per run (default 50000)\n"
      "  --horizon N       sim-time when random faults stop (default 400)\n"
      "  --lose P          P(message lost)\n"
      "  --corrupt P       P(payload section corrupted)\n"
      "  --truncate P      P(payload section truncated)\n"
      "  --duplicate P     P(message duplicated)\n"
      "  --reorder P       P(message reordered past later traffic)\n"
      "  --delay-max N     max extra delivery delay in ticks\n"
      "  --partition P     P(random link cut per window)\n"
      "  --site-down P     P(random crash per crash window)\n"
      "  --cut A B AT HEAL cut link A-B at AT, heal at HEAL (repeatable)\n"
      "  --crash S AT RST  crash site S at AT, restart at RST (repeatable)\n"
      "  --no-deep-replay  skip per-commit history replay validation\n"
      "  --no-commit       disable the decentralised commitment layer\n"
      "  --drop-vote P     P(site withholds its commitment frame per slot)\n"
      "  --stale-vote P    P(site announces stale commitment knowledge)\n"
      "  --trace           print the full event trace of each run\n"
      "  --json PATH       write a JSON array of per-run reports\n"
      "  --failures DIR    write failing runs' reports + traces + captures\n"
      "                    into DIR\n"
      "  --capture DIR     write a binary capture log per run\n"
      "                    (DIR/seed-N.icap)\n"
      "  --capture-sync M  capture durability: none | interval | frame\n"
      "                    (default interval)\n"
      "  --capture-crash P P(a capture flush crashes mid-write)\n"
      "  --capture-short P P(a capture flush is silently cut short)\n"
      "  --capture-flip P  P(a capture flush has one byte flipped)\n"
      "  --replay-capture F  re-drive the run recorded in capture F and\n"
      "                    verify it frame-for-frame + trace-CRC\n"
      "  --replay-stop N   with --replay-capture: compare only the first\n"
      "                    N frames (incident bisection)\n"
      "  --replay-trace F  re-run the spec given by the other flags and\n"
      "                    compare its event trace against trace file F\n"
      "  --audit-diff A B  locate the first divergent frame of captures\n"
      "                    A and B\n",
      argv0);
}

bool parse_prob(const char* s, double& out) {
  return parse_double(s, out) && out >= 0.0 && out <= 1.0;
}

void write_json_file(const std::string& path, const std::string& json) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
    return;
  }
  out << json << "\n";
}

/// One-line preview of a capture payload for terminal output.
std::string preview(const std::string& payload) {
  std::string out = payload.substr(0, 96);
  for (char& c : out) {
    if (c == '\n') c = ' ';
    if (static_cast<unsigned char>(c) < 0x20) c = '.';
  }
  if (payload.size() > out.size()) out += "...";
  return out;
}

/// --replay-capture: exit 0 faithful, 1 divergent/CRC mismatch, 2
/// unreadable capture.
int run_replay_capture(const std::string& path, std::size_t stop_after,
                       const std::string& json_path) {
  ReplayOptions options;
  options.stop_after = stop_after;
  const ReplayResult result = replay_capture_file(path, options);
  write_json_file(json_path, result.to_json());
  if (!result.error.ok()) {
    std::fprintf(stderr, "replay-capture: %s\n",
                 result.error.message().c_str());
    return 2;
  }
  if (result.capture_recovered) {
    std::printf(
        "capture was recovered from a torn write: %zu trailing byte(s) "
        "quarantined (%s)\n",
        result.quarantined_bytes, "replaying the intact prefix");
  }
  std::printf("replayed %zu/%zu recorded frame(s)", result.frames_compared,
              result.recorded_frames);
  if (result.crc_checked) {
    std::printf(", trace crc %08x %s", result.recorded_crc,
                result.crc_match ? "reproduced" : "NOT reproduced");
  } else {
    std::printf(", no summary frame (capture truncated before run end)");
  }
  std::printf("\n");
  if (result.divergence) {
    const ReplayDivergence& d = *result.divergence;
    std::printf("FIRST DIVERGENT FRAME: #%zu\n", d.frame);
    std::printf("  recorded: [%s @t%llu] %s\n",
                std::string(to_string(d.recorded.kind)).c_str(),
                static_cast<unsigned long long>(d.recorded.time),
                preview(d.recorded.payload).c_str());
    std::printf("  live:     [%s @t%llu] %s\n",
                std::string(to_string(d.live.kind)).c_str(),
                static_cast<unsigned long long>(d.live.time),
                preview(d.live.payload).c_str());
    return 1;
  }
  std::printf(result.faithful() ? "replay is bit-exact\n"
                                : "replay FAILED\n");
  return result.faithful() ? 0 : 1;
}

/// --audit-diff: exit 0 identical, 1 divergent, 2 unreadable.
int run_audit_diff(const std::string& a, const std::string& b,
                   const std::string& json_path) {
  const AuditDiff diff = audit_diff_files(a, b);
  write_json_file(json_path, diff.to_json());
  if (!diff.readable()) {
    if (!diff.a.readable()) {
      std::fprintf(stderr, "audit-diff: %s: %s\n", a.c_str(),
                   diff.a.error.message().c_str());
    }
    if (!diff.b.readable()) {
      std::fprintf(stderr, "audit-diff: %s: %s\n", b.c_str(),
                   diff.b.error.message().c_str());
    }
    return 2;
  }
  for (const auto* side : {&diff.a, &diff.b}) {
    if (side->quarantined_bytes > 0) {
      std::printf("%s: recovered, %zu byte(s) quarantined (%s)\n",
                  side == &diff.a ? a.c_str() : b.c_str(),
                  side->quarantined_bytes, side->error.message().c_str());
    }
  }
  if (diff.identical) {
    std::printf("captures identical: %zu frame(s)\n", diff.a.frames);
    return 0;
  }
  std::printf("first divergent frame: #%zu (a holds %zu, b holds %zu)\n",
              diff.first_divergent, diff.a.frames, diff.b.frames);
  std::printf("  a: [%s @t%llu] %s\n",
              std::string(to_string(diff.a_frame.kind)).c_str(),
              static_cast<unsigned long long>(diff.a_frame.time),
              preview(diff.a_frame.payload).c_str());
  std::printf("  b: [%s @t%llu] %s\n",
              std::string(to_string(diff.b_frame.kind)).c_str(),
              static_cast<unsigned long long>(diff.b_frame.time),
              preview(diff.b_frame.payload).c_str());
  return 1;
}

/// --replay-trace: re-run the spec the flags describe and compare its
/// event trace line-for-line against a .trace artifact. A missing,
/// unreadable or empty trace file is a structured error and exit 2 —
/// never a vacuous "empty run matches".
int run_replay_trace(ChaosSpec spec, const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "replay-trace: %s\n",
                 icecube::DecodeError{DecodeErrorKind::kEmptyInput, 0,
                                      "cannot read trace file '" + path + "'"}
                     .message()
                     .c_str());
    return 2;
  }
  std::vector<std::string> recorded;
  std::string line;
  while (std::getline(in, line)) {
    // Failure artifacts prepend violation lines to the trace; skip them.
    if (line.rfind("violation: ", 0) == 0) continue;
    recorded.push_back(line);
  }
  if (in.bad()) {
    std::fprintf(stderr, "replay-trace: %s\n",
                 icecube::DecodeError{DecodeErrorKind::kTruncated, 0,
                                      "error while reading '" + path + "'"}
                     .message()
                     .c_str());
    return 2;
  }
  if (recorded.empty()) {
    std::fprintf(
        stderr, "replay-trace: %s\n",
        icecube::DecodeError{DecodeErrorKind::kEmptyInput, 0,
                             "'" + path + "' holds no trace lines"}
            .message()
            .c_str());
    return 2;
  }

  spec.keep_trace = true;
  const ChaosReport report = run_chaos(spec);
  const std::size_t common = std::min(recorded.size(), report.trace.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (recorded[i] != report.trace[i]) {
      std::printf("trace diverges at line %zu:\n  recorded: %s\n  live:     %s\n",
                  i + 1, recorded[i].c_str(), report.trace[i].c_str());
      return 1;
    }
  }
  if (recorded.size() != report.trace.size()) {
    std::printf("trace length mismatch: recorded %zu line(s), live %zu\n",
                recorded.size(), report.trace.size());
    return 1;
  }
  std::printf("trace matches: %zu line(s), crc %08x\n", recorded.size(),
              report.trace_crc);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ChaosSpec spec;
  std::size_t runs = 1;
  bool print_trace = false;
  std::string json_path;
  std::string failures_dir;
  std::string capture_dir;
  CaptureDurability capture_sync = CaptureDurability::kInterval;
  std::string replay_capture_path;
  std::size_t replay_stop = static_cast<std::size_t>(-1);
  std::string replay_trace_path;
  std::string audit_a;
  std::string audit_b;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need = [&](int count) {
      if (i + count >= argc) {
        std::fprintf(stderr, "%s needs %d argument(s)\n", arg.c_str(),
                     count);
        // Single-threaded CLI: exiting from the arg parser is safe.
        std::exit(2);  // NOLINT(concurrency-mt-unsafe)
      }
    };
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--seed") {
      need(1);
      ok = parse_u64(argv[++i], spec.seed);
    } else if (arg == "--seeds") {
      need(1);
      ok = parse_size(argv[++i], runs) && runs > 0;
    } else if (arg == "--sites") {
      need(1);
      ok = parse_size(argv[++i], spec.sites) && spec.sites >= 2;
    } else if (arg == "--actions") {
      need(1);
      ok = parse_size(argv[++i], spec.actions_per_site);
    } else if (arg == "--interval") {
      need(1);
      ok = parse_size(argv[++i], spec.gossip_interval);
    } else if (arg == "--budget") {
      need(1);
      ok = parse_size(argv[++i], spec.step_budget);
    } else if (arg == "--horizon") {
      need(1);
      ok = parse_size(argv[++i], spec.fault_horizon);
    } else if (arg == "--lose") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.lose);
    } else if (arg == "--corrupt") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.corrupt);
    } else if (arg == "--truncate") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.truncate);
    } else if (arg == "--duplicate") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.duplicate);
    } else if (arg == "--reorder") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.reorder);
    } else if (arg == "--delay-max") {
      need(1);
      ok = parse_size(argv[++i], spec.faults.delay_max);
    } else if (arg == "--partition") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.partition);
    } else if (arg == "--site-down") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.site_down);
    } else if (arg == "--cut") {
      need(4);
      ChaosPartition p;
      p.a = argv[++i];
      p.b = argv[++i];
      ok = parse_size(argv[++i], p.at) && parse_size(argv[++i], p.heal_at) &&
           p.at < p.heal_at;
      spec.partitions.push_back(std::move(p));
    } else if (arg == "--crash") {
      need(3);
      ChaosCrash c;
      c.site = argv[++i];
      ok = parse_size(argv[++i], c.at) &&
           parse_size(argv[++i], c.restart_at) && c.at < c.restart_at;
      spec.crashes.push_back(std::move(c));
    } else if (arg == "--no-deep-replay") {
      spec.deep_replay = false;
    } else if (arg == "--no-commit") {
      spec.commitment = false;
    } else if (arg == "--drop-vote") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.drop_vote);
    } else if (arg == "--stale-vote") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.stale_vote);
    } else if (arg == "--trace") {
      print_trace = true;
    } else if (arg == "--json") {
      need(1);
      json_path = argv[++i];
    } else if (arg == "--failures") {
      need(1);
      failures_dir = argv[++i];
    } else if (arg == "--capture") {
      need(1);
      capture_dir = argv[++i];
    } else if (arg == "--capture-sync") {
      need(1);
      const std::string mode = argv[++i];
      if (mode == "none") {
        capture_sync = CaptureDurability::kNone;
      } else if (mode == "interval") {
        capture_sync = CaptureDurability::kInterval;
      } else if (mode == "frame") {
        capture_sync = CaptureDurability::kPerFrame;
      } else {
        ok = false;
      }
    } else if (arg == "--capture-crash") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.capture_crash);
    } else if (arg == "--capture-short") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.capture_short);
    } else if (arg == "--capture-flip") {
      need(1);
      ok = parse_prob(argv[++i], spec.faults.capture_flip);
    } else if (arg == "--replay-capture") {
      need(1);
      replay_capture_path = argv[++i];
    } else if (arg == "--replay-stop") {
      need(1);
      ok = parse_size(argv[++i], replay_stop);
    } else if (arg == "--replay-trace") {
      need(1);
      replay_trace_path = argv[++i];
    } else if (arg == "--audit-diff") {
      need(2);
      audit_a = argv[++i];
      audit_b = argv[++i];
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
  // Replay / audit modes run instead of a sweep.
  if (!replay_capture_path.empty()) {
    return run_replay_capture(replay_capture_path, replay_stop, json_path);
  }
  if (!audit_a.empty()) {
    return run_audit_diff(audit_a, audit_b, json_path);
  }
  if (!replay_trace_path.empty()) {
    return run_replay_trace(spec, replay_trace_path);
  }

  spec.keep_trace = print_trace || !failures_dir.empty();

  for (const std::string& dir : {capture_dir, failures_dir}) {
    if (dir.empty()) continue;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      std::fprintf(stderr, "cannot create directory '%s': %s\n", dir.c_str(),
                   ec.message().c_str());
      return 2;
    }
  }

  std::vector<std::string> json_reports;
  std::size_t failures = 0;
  const std::uint64_t first_seed = spec.seed;

  std::printf("%8s %6s %6s %10s %8s %6s %6s %9s %7s %10s %6s\n", "seed",
              "sites", "steps", "converged", "epoch", "merges", "xfers",
              "quarant.", "stable", "trace", "viol");
  for (std::size_t r = 0; r < runs; ++r) {
    spec.seed = first_seed + r;

    // Capture plumbing: with --capture the run streams straight into a
    // durable wire log (through the capture-write fault points, if those
    // knobs are set); with only --failures it records in memory so a
    // violating run can still dump a replayable capture.
    const std::string capture_name =
        "seed-" + std::to_string(spec.seed) + ".icap";
    std::unique_ptr<WireLogWriter> writer;
    std::unique_ptr<FaultPlan> capture_faults;
    MemoryCaptureSink memory;
    ChaosReport report;
    if (!capture_dir.empty()) {
      CaptureWriterOptions options;
      options.durability = capture_sync;
      if (spec.faults.capture_crash > 0 || spec.faults.capture_short > 0 ||
          spec.faults.capture_flip > 0) {
        capture_faults = std::make_unique<FaultPlan>(spec.seed, spec.faults);
        options.faults = capture_faults.get();
      }
      writer = std::make_unique<WireLogWriter>(
          capture_dir + "/" + capture_name, options);
      if (!writer->error().ok()) {
        std::fprintf(stderr, "capture: %s\n",
                     writer->error().message().c_str());
        return 2;
      }
      report = run_chaos_captured(spec, *writer);
      writer->close();
    } else if (!failures_dir.empty()) {
      report = run_chaos_captured(spec, memory);
    } else {
      report = run_chaos(spec);
    }
    std::printf(
        "%8llu %6zu %6zu %10s %8llu %6zu %6zu %9zu %7zu   %08x %6zu\n",
        static_cast<unsigned long long>(report.seed), report.sites,
        report.steps,
        report.converged
            ? ("t=" + std::to_string(report.converged_at)).c_str()
            : "NO",
        static_cast<unsigned long long>(report.max_epoch),
        report.totals.merges, report.totals.transfers,
        report.totals.quarantines + report.commit_totals.quarantines,
        report.stable_actions, report.trace_crc, report.violations.size());
    for (const Violation& v : report.violations) {
      std::printf("    violation: %s\n", v.message().c_str());
    }
    if (print_trace) {
      for (const std::string& line : report.trace) {
        std::printf("    %s\n", line.c_str());
      }
    }
    if (!report.ok()) {
      ++failures;
      std::printf("    replay: --seed %llu (plus the flags of this run)\n",
                  static_cast<unsigned long long>(report.seed));
      if (!failures_dir.empty()) {
        // One report + trace + replayable capture per failing seed, for
        // CI artifacts.
        const std::string base = failures_dir + "/seed-" +
                                 std::to_string(report.seed);
        std::ofstream rep(base + ".json");
        if (rep) rep << report.to_json() << "\n";
        std::ofstream trc(base + ".trace");
        if (trc) {
          for (const Violation& v : report.violations) {
            trc << "violation: " << v.message() << "\n";
          }
          for (const std::string& line : report.trace) trc << line << "\n";
        }
        if (!rep || !trc) {
          std::fprintf(stderr, "cannot write failure artifacts under '%s'\n",
                       failures_dir.c_str());
        }
        if (capture_dir.empty()) {
          // Not already on disk: dump the in-memory capture next to the
          // report so the violation replays offline.
          WireLogWriter dump(base + ".icap");
          for (const CaptureRecord& record : memory.records()) {
            dump.record(record);
          }
          dump.close();
          if (!dump.error().ok()) {
            std::fprintf(stderr, "cannot write capture '%s': %s\n",
                         (base + ".icap").c_str(),
                         dump.error().message().c_str());
          } else {
            std::printf("    capture: %s.icap (chaos --replay-capture)\n",
                        base.c_str());
          }
        } else {
          std::printf("    capture: %s/%s (chaos --replay-capture)\n",
                      capture_dir.c_str(), capture_name.c_str());
        }
      }
    }
    json_reports.push_back(report.to_json());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", json_path.c_str());
      return 2;
    }
    out << "[\n";
    for (std::size_t i = 0; i < json_reports.size(); ++i) {
      out << "  " << json_reports[i]
          << (i + 1 < json_reports.size() ? "," : "") << "\n";
    }
    out << "]\n";
  }

  std::printf("\n%zu/%zu runs converged with zero violations\n",
              runs - failures, runs);
  return failures == 0 ? 0 : 1;
}
