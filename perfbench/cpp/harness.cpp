#include "cpp/harness.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

std::int32_t Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - origin_)
                      .count();
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request_;
  spans_.push_back(span);
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  // Spans nest strictly (they are scoped), so the closing span is on top.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds(std::size_t first) const {
  std::vector<std::int64_t> self(spans_.size(), 0);
  for (std::size_t i = first; i < spans_.size(); ++i) {
    self[i] += spans_[i].end_ns - spans_[i].start_ns;
    const std::int32_t p = spans_[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) >= first) {
      self[static_cast<std::size_t>(p)] -=
          spans_[i].end_ns - spans_[i].start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = first; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::size_t n = std::min(spans_.size(), kMaxWrittenSpans);
  out << "[\n";
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    out << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}}"
        << (i + 1 < n ? ",\n" : "\n");
  }
  out << "]\n";
  return static_cast<bool>(out);
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"core.construct_ms", "ms", "core.construct", 1e3},
      {"core.run_ms", "ms", "core.run", 1e3},
      {"core.schedules_explored", "count", nullptr, 1},
      {"core.schedules_completed", "count", nullptr, 1},
      {"core.complete_ratio", "ratio", nullptr, 1},
      {"core.sim_steps", "count", nullptr, 1},
      {"core.object_clones", "count", nullptr, 1},
      {"core.bytes_cloned", "bytes", nullptr, 1},
      {"core.order_calls", "count", nullptr, 1},
      {"core.pairs_evaluated", "count", nullptr, 1},
      {"solver.greedy_run_s", "s", "solver.greedy_run", 1},
      {"solver.ls_run_s", "s", "solver.ls_run", 1},
      {"solver.ls_moves_proposed", "count", nullptr, 1},
      {"solver.ls_accept_ratio", "ratio", nullptr, 1},
      {"stream.submit_s", "s", "stream.submit", 1},
      {"stream.finish_s", "s", "stream.finish", 1},
      {"stream.ingest_s", "s", "stream.ingest", 1},
      {"stream.epoch_s", "s", "stream.epoch", 1},
      {"stream.fast_appends", "count", nullptr, 1},
      {"stream.full_resolves", "count", nullptr, 1},
      {"stream.fast_ratio", "ratio", nullptr, 1},
      {"stream.epochs", "count", nullptr, 1},
      {"stream.max_commit_lag", "actions", nullptr, 1},
      {"stream.committed_before_finish", "actions", nullptr, 1},
      {"stream.generator_late_p99_ms", "ms", nullptr, 1},
      {"incremental.pairs_evaluated", "count", nullptr, 1},
      {"incremental.target_set_builds", "count", nullptr, 1},
      {"replica.gossip_receive_ms", "ms", "replica.gossip_receive", 1e3},
      {"replica.gossip_message_ms", "ms", "replica.gossip_message", 1e3},
      {"replica.commit_receive_ms", "ms", "replica.commit_receive", 1e3},
      {"replica.commit_message_ms", "ms", "replica.commit_message", 1e3},
      {"replica.commit_tick_ms", "ms", "replica.commit_tick", 1e3},
      {"replica.gossip_bytes", "bytes", nullptr, 1},
      {"replica.commit_bytes", "bytes", nullptr, 1},
      {"replica.merges", "count", nullptr, 1},
      {"replica.transfers", "count", nullptr, 1},
      {"replica.demotions", "count", nullptr, 1},
      {"replica.useful_exchange_ratio", "ratio", nullptr, 1},
      {"commit.decisions", "count", nullptr, 1},
      {"commit.runoff_votes", "count", nullptr, 1},
      {"commit.rebases", "count", nullptr, 1},
      {"simnet.step_ms", "ms", "simnet.step", 1e3},
      {"simnet.send_ms", "ms", "simnet.send", 1e3},
      {"simnet.sent", "count", nullptr, 1},
      {"simnet.delivered", "count", nullptr, 1},
      {"simnet.lost", "count", nullptr, 1},
      {"simnet.stable_ticks", "ticks", nullptr, 1},
      {"workload.generate_s", "s", "workload.generate", 1},
      {"trace.overhead_pct", "%", nullptr, 1},
  };
  return kMetrics;
}

double peak_rss_mb() {
  // VmHWM is per address space, so it starts afresh at exec and does not
  // include whatever launched this process.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 over (seed, index).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + index + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

struct Printed {
  std::string name;
  std::string unit;
  double value;
};

double median_of(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace

int run_workload(Workload& workload, const RunOptions& options,
                 Clock::time_point process_start) {
  // glibc's allocator leaves its single-thread fast path for good once a
  // process starts its first thread, and allocation-heavy merges then run
  // up to twice as slow. StreamDaemon starts one, so without this the
  // rounds before a workload's first daemon would run in another mode than
  // the rest. Every workload runs in the multi-threaded mode from the start.
  std::thread([] {}).join();
  Tracer tracer(process_start);
  tracer.set_enabled(options.trace);
  workload.setup(options.seed, tracer);
  const Clock::time_point setup_end = Clock::now();
  const double setup_s = seconds_between(process_start, setup_end);
  const std::map<std::string, double> setup_self = tracer.self_seconds(0);

  // Whole rounds until the time is up; a traced run needs at least one
  // traced and one untraced round.
  const Clock::time_point deadline =
      setup_end + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(options.seconds));
  std::vector<RoundOutput> rounds;
  std::vector<double> untraced_wall;
  std::vector<double> traced_wall;
  std::vector<std::map<std::string, double>> traced_self;
  std::vector<std::size_t> traced_index;
  // Every round repeats the same operations, so operation i of one round
  // is operation i of every other. The machine's speed swings by a third
  // within seconds (see README), and a disturbance only ever slows an
  // operation down, so each operation counts with its fastest untraced
  // repeat. The minima are kept as the rounds go, not every sample.
  std::vector<double> fastest_latency_ms;
  std::vector<double> fastest_busy_s;
  const auto fold = [](std::vector<double>& best, std::vector<double>& v,
                       bool first_round) {
    if (first_round) best = v;
    best.resize(std::min(best.size(), v.size()));
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i] = std::min(best[i], v[i]);
    }
    std::vector<double>().swap(v);
  };
  while (true) {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    tracer.set_enabled(traced);
    const std::size_t first = tracer.spans().size();
    const Clock::time_point t0 = Clock::now();
    rounds.push_back(workload.round(tracer));
    const double wall = seconds_between(t0, Clock::now());
    RoundOutput& r = rounds.back();
    if (!traced) {
      fold(fastest_latency_ms, r.latency_ms, untraced_wall.empty());
      fold(fastest_busy_s, r.busy_s, untraced_wall.empty());
    }
    if (traced) {
      traced_wall.push_back(wall);
      traced_self.push_back(tracer.self_seconds(first));
      traced_index.push_back(rounds.size() - 1);
    } else {
      untraced_wall.push_back(wall);
    }
    const bool enough = !options.trace || !traced_wall.empty();
    if (enough && Clock::now() >= deadline) break;
  }
  tracer.set_enabled(false);

  const std::vector<std::string> failures = workload.check();
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RoundOutput& r : rounds) {
    attempted += r.attempted;
    failed += r.failed;
  }

  std::vector<Printed> printed;
  if (!options.trace) {
    double busy_s = 0;
    for (double s : fastest_busy_s) busy_s += s;
    const double actions_per_s =
        busy_s > 0 ? rounds.front().actions / busy_s : 0;
    std::vector<double> executed;
    for (const RoundOutput& r : rounds) executed.push_back(r.executed);
    printed.push_back({"setup_s", "s", setup_s});
    printed.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
    printed.push_back(
        {"latency_p50_ms", "ms", quantile(fastest_latency_ms, 0.50)});
    printed.push_back(
        {"latency_p99_ms", "ms", quantile(fastest_latency_ms, 0.99)});
    printed.push_back({"actions_per_s", "actions/s", actions_per_s});
    printed.push_back({"executed_actions", "actions", median_of(executed)});
  } else {
    const double overhead_pct =
        (median_of(traced_wall) / median_of(untraced_wall) - 1.0) * 100.0;
    for (const LayerMetric& m : layer_metrics()) {
      std::vector<double> per_round;
      const std::string name = m.name;
      if (name == "trace.overhead_pct") {
        per_round.push_back(overhead_pct);
      } else if (name == "workload.generate_s") {
        const auto it = setup_self.find(m.span);
        per_round.push_back(it == setup_self.end() ? 0 : it->second);
      } else {
        for (std::size_t k = 0; k < traced_index.size(); ++k) {
          if (m.span != nullptr) {
            const auto it = traced_self[k].find(m.span);
            per_round.push_back(
                it == traced_self[k].end() ? 0 : it->second * m.scale);
          } else {
            const RoundOutput& r = rounds[traced_index[k]];
            const auto it = r.layer.find(name);
            per_round.push_back(it == r.layer.end() ? 0 : it->second);
          }
        }
      }
      printed.push_back({name, m.unit, median_of(per_round)});
    }
  }

  // Human-readable summary on stderr.
  std::fprintf(stderr, "workload %s seed %llu: %zu round(s), setup %.3f s\n",
               options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), rounds.size(),
               setup_s);
  std::fprintf(stderr, "round wall s:");
  for (double w : untraced_wall) std::fprintf(stderr, " %.3f", w);
  std::fprintf(stderr, "\n");
  if (options.trace) {
    std::fprintf(stderr,
                 "traced rounds %zu (median %.3f s), untraced %zu (median "
                 "%.3f s)\n",
                 traced_wall.size(), median_of(traced_wall),
                 untraced_wall.size(), median_of(untraced_wall));
  }
  for (const Printed& p : printed) {
    std::fprintf(stderr, "  %-34s %16.6g %s\n", p.name.c_str(), p.value,
                 p.unit.c_str());
  }
  if (!options.trace) {
    std::map<std::string, std::vector<double>> per_round;
    for (const RoundOutput& r : rounds) {
      for (const auto& [name, value] : r.values) per_round[name].push_back(value);
    }
    for (const auto& [name, values] : per_round) {
      std::fprintf(stderr, "  %-34s %16.6g (rounds min %.6g max %.6g)\n",
                   name.c_str(), median_of(values), quantile(values, 0),
                   quantile(values, 1));
    }
  }
  for (const std::string& note : workload.notes()) {
    std::fprintf(stderr, "  note: %s\n", note.c_str());
  }
  std::fprintf(stderr, "checks: %s (%llu attempted, %llu failed)\n",
               failures.empty() ? "all passed" : "FAILED",
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed));
  for (const std::string& f : failures) {
    std::fprintf(stderr, "  check failed: %s\n", f.c_str());
  }

  std::string json = "{\"correct\": ";
  json += failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + printed[i].name + "\": {\"value\": " +
            number(printed[i].value) + ", \"unit\": \"" + printed[i].unit +
            "\"}";
  }
  json += "}}";

  // Outputs go next to the checkout's other build products; failing to
  // write them does not invalidate the measurement.
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);
  const std::string stem = options.out_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed);
  {
    std::ofstream result(stem + (options.trace ? "-traced" : "") +
                         "-result.json");
    if (result) result << json << "\n";
  }
  if (options.trace) {
    const std::string path = stem + "-trace.json";
    if (tracer.write_json(path)) {
      std::fprintf(stderr, "spans: %zu recorded, the first %zu written to %s\n",
                   tracer.spans().size(),
                   std::min(tracer.spans().size(), Tracer::kMaxWrittenSpans),
                   path.c_str());
    }
  }

  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench
