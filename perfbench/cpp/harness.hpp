// Measurement harness shared by every workload: clocks, the span tracer,
// the round loop and the result line.
//
// A workload is set up once (timed as `setup_s`), then runs whole rounds —
// each round the same fixed set of operations on the same generated inputs
// — until the requested seconds have elapsed. End-to-end latencies and
// throughput take each operation at its fastest repeat over the rounds.
//
// With tracing on, rounds alternate between untraced and traced. Traced
// rounds record spans around the benchmark's own calls into each module;
// a span's self time is its duration minus what its child spans cover.
// Per-layer metrics are medians over the traced rounds, and the untraced
// rounds of the same process give the tracing overhead.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span. `name` points at a string literal.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer's origin
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 = root
  std::uint64_t request = 0;  ///< one merge, one epoch or one sim event
};

/// In-memory span recorder for one thread (the benchmark's own). Disabled
/// tracers record nothing; spans are written out when the run ends.
class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Starts a new request; spans opened from now on carry its id.
  void next_request() { ++request_; }

  [[nodiscard]] std::int32_t open(const char* name);
  void close(std::int32_t id);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per span name over spans [first, end).
  [[nodiscard]] std::map<std::string, double> self_seconds(
      std::size_t first) const;

  /// Self times come from every span; the file keeps only the first ones,
  /// so a long traced run does not write hundreds of megabytes.
  static constexpr std::size_t kMaxWrittenSpans = 100000;

  /// Writes the first kMaxWrittenSpans spans as a Chrome trace-event JSON
  /// array (viewable in Perfetto / chrome://tracing). Returns false if the
  /// file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  bool enabled_ = false;
  std::uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Scope() { tracer_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// What one round produced. Every workload fills the same fields, so
/// every run reports the same end-to-end metrics:
///   latency_p50_ms, latency_p99_ms  quantiles over the operations of
///                                   `latency_ms`, each at its fastest
///                                   repeat over the rounds;
///   actions_per_s                   `actions` / the sum over the
///                                   operations of `busy_s`, each at its
///                                   fastest repeat;
///   executed_actions                `executed`, median over rounds.
struct RoundOutput {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// How long a user waited for each of the round's operations, in ms,
  /// in the same order in every round.
  std::vector<double> latency_ms;
  /// Actions the round's throughput-bound operations took in, and the wall
  /// seconds each of those operations took, in the same order every round.
  double actions = 0;
  std::vector<double> busy_s;
  /// Actions executed in the chosen outcomes, summed over the round.
  double executed = 0;
  /// Workload-specific figures (medians over rounds, on stderr only).
  std::map<std::string, double> values;
  /// Per-layer counts and ratios of this round (median over traced rounds).
  std::map<std::string, double> layer;
};

/// One workload: set up once, then whole rounds until time is up.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates inputs from `seed` and constructs everything the rounds
  /// need. Spans opened here count as set-up.
  virtual void setup(std::uint64_t seed, Tracer& tracer) = 0;
  /// Runs one round. The first round's outputs are kept for `check`;
  /// later rounds must reproduce them.
  virtual RoundOutput round(Tracer& tracer) = 0;
  /// Output checks; each failure is one message. Called after the rounds.
  [[nodiscard]] virtual std::vector<std::string> check() = 0;
  /// Extra human-readable lines for the stderr summary.
  [[nodiscard]] virtual std::vector<std::string> notes() const { return {}; }
};

/// A per-layer metric: a span's self time (when `span` is set) or a
/// round counter of the same name.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  ///< nullptr for counters
  double scale;      ///< seconds -> unit
};

/// Every per-layer metric, in BENCHMARK.json order.
[[nodiscard]] const std::vector<LayerMetric>& layer_metrics();

/// Peak resident set size of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// The q-quantile of `values` (linear interpolation between order
/// statistics); 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Mixes a seed with a stream index into an independent 64-bit seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t index);

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_out";
};

/// Sets up `workload`, runs its rounds, checks it and prints the summary
/// to stderr and the result JSON as the last line of stdout. Returns the
/// process exit status.
int run_workload(Workload& workload, const RunOptions& options,
                 Clock::time_point process_start);

}  // namespace perfbench
