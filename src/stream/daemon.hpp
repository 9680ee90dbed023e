// Online streaming reconciliation (DESIGN.md §15).
//
// The batch engine answers "given these divergent logs, what is the best
// merged schedule?" once. The daemon answers it *continuously*: replicas
// ship log entries as they happen, and the reconciler keeps an incumbent
// merged schedule whose stable prefix it commits under a latency budget.
//
// The exactness contract (what makes streaming more than a heuristic):
// after `finish()`, the merged schedule, per-action statuses and final
// state are identical to a batch `reconcile()` over the same logs with the
// same backend — for ANY arrival interleaving that preserves per-log order.
// The mechanism is the conflict-component decomposition of
// solver/components.hpp: a component's compacted sub-problem (local ids in
// stream-priority order, canonical seed) is the same object no matter how
// its members trickled in, so re-solving the components arrivals touch and
// k-way merging by stream priority reproduces the batch answer.
//
// The mid-run committed log is weaker by design and the difference is the
// point: a commit promises the action's *status* (executed or dropped in
// the final schedule), not its final position. Re-solves that contradict an
// earlier commit are counted in `commit_violations`; the greedy backend
// with whole-log-at-a-time arrival provably never violates (an arrival with
// globally maximal priority and no successors lands at the end of its
// component's Kahn order and flips no earlier status).
//
// Per-arrival cost: extending the incremental constraint graph is
// O(overlap); placing the arrival is O(1) amortised on the greedy fast
// path (appendable arrivals), O(component) when local search re-solves.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "capture/capture_sink.hpp"
#include "core/constraint_builder.hpp"
#include "core/options.hpp"
#include "core/outcome.hpp"
#include "core/universe.hpp"
#include "solver/components.hpp"
#include "util/crc32.hpp"
#include "util/spsc_ring.hpp"

namespace icecube {

/// Daemon configuration. `backend` folds to two behaviours: kLocalSearch
/// runs the SA/tabu engine per component; everything else is greedy.
struct StreamOptions {
  SolverKind backend = SolverKind::kGreedy;
  LocalSearchOptions local_search;
  SearchLimits limits;
  /// Epochs a component solution must survive undisturbed (no full
  /// re-solve) before its entries may commit. 0 commits the same epoch.
  std::uint64_t commit_quiescence = 1;
  /// Per-epoch solve budget in microseconds; once the epoch's deadline
  /// passes, its remaining components degrade to their greedy construction
  /// (local search polishes them again in `finish`). 0 = no budget
  /// (required for capture determinism).
  std::uint64_t epoch_budget_us = 0;
};

/// Commit-latency distribution: log2-bucketed nanoseconds from submit (or
/// ingest) to commit. A quantile interpolates geometrically within its
/// bucket by the wanted sample's rank there — coarse, but allocation-free
/// and O(1) per sample at ingest rates.
class LatencyHistogram {
 public:
  void record(std::uint64_t ns) {
    int bucket = 0;
    while (ns >> (bucket + 1) != 0 && bucket < 63) ++bucket;
    ++buckets_[static_cast<std::size_t>(bucket)];
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// The q-quantile (q in [0,1]) in milliseconds; 0 when empty.
  [[nodiscard]] double quantile_ms(double q) const;

 private:
  std::array<std::uint64_t, 64> buckets_{};
  std::uint64_t count_ = 0;
};

/// Streaming-only accounting (solver work lands in SearchStats).
struct StreamCounters {
  std::uint64_t ingested = 0;
  std::uint64_t epochs = 0;
  std::uint64_t degraded_epochs = 0;  ///< epochs whose budget deadline fired
  /// Arrivals placed by the O(1) greedy append (no successors, maximal
  /// priority in their component) vs. full component re-solves.
  std::uint64_t fast_appends = 0;
  std::uint64_t full_resolves = 0;
  std::uint64_t committed = 0;
  /// Re-solves that changed the status of an already-committed action.
  std::uint64_t commit_violations = 0;
  std::uint64_t max_commit_lag = 0;  ///< peak ingested - committed
};

/// One committed-prefix entry: the promise that `id` has `status` in the
/// final schedule, made at `epoch`.
struct CommitEntry {
  ActionId id;
  RunStatus status = RunStatus::kExecuted;
  std::uint64_t epoch = 0;
};

/// What `finish()` returns: the canonical merged result (batch-equal) plus
/// the full sequence/status view the merge produced.
struct StreamResult {
  Outcome outcome;
  std::vector<ActionId> sequence;  ///< every action in merge order
  std::vector<RunStatus> status;   ///< parallel to `sequence`
};

/// The single-threaded reconciler core: ingest → incremental graph →
/// dirty-component solve → commit walk. `StreamDaemon` wraps it with the
/// SPSC ring and a consumer thread; tests and the deterministic capture
/// path drive it directly.
class StreamReconciler {
 public:
  /// `capture` (optional, not owned) receives one kAction frame per ingest,
  /// one kTrace frame per epoch and a kSummary frame from `finish` — all
  /// with deterministic payloads, so a captured run replays bit-exactly.
  StreamReconciler(Universe initial, StreamOptions options,
                   CaptureSink* capture = nullptr);

  // The incremental graph holds a pointer to `initial_`.
  StreamReconciler(const StreamReconciler&) = delete;
  StreamReconciler& operator=(const StreamReconciler&) = delete;

  /// Appends one action to `log` (positions are assigned per log in ingest
  /// order) and extends the constraint graph. `submit_ns` backdates the
  /// latency clock to when the producer enqueued the action; 0 = now.
  ActionId ingest(LogId log, ActionPtr action, std::uint64_t submit_ns = 0);

  /// One solve/commit round over the components ingests dirtied since the
  /// last epoch, bounded by `epoch_budget_us`.
  void run_epoch();

  /// Final unbudgeted solves (local search re-polishes anything a budget
  /// degraded), ungated commit of everything left, and the canonical
  /// k-way merge. The reconciler is spent afterwards.
  [[nodiscard]] StreamResult finish();

  [[nodiscard]] const std::vector<CommitEntry>& committed() const {
    return committed_;
  }
  [[nodiscard]] const StreamCounters& counters() const { return counters_; }
  [[nodiscard]] const SearchStats& stats() const { return stats_; }
  [[nodiscard]] const LatencyHistogram& commit_latency() const {
    return latency_;
  }
  [[nodiscard]] const IncrementalConstraintGraph& graph() const {
    return graph_;
  }
  [[nodiscard]] std::uint32_t trace_crc() const { return crc_.value(); }

 private:
  static constexpr std::uint32_t kNoStrand = UINT32_MAX;

  /// One solved run of a component: the live prefix commits through
  /// `next`, the frozen tail commits at finish. A full re-solve of the
  /// component kills its strands and replaces them with one fresh strand;
  /// the greedy fast path grows the component's tail strand in place
  /// (appended entries are priority-ascending by construction, all the
  /// canonical merge requires of a part).
  struct Strand {
    ComponentSolution solution;
    std::size_t next = 0;  ///< commit cursor into solution.sequence
    std::uint64_t last_disrupt_epoch = 0;
    bool alive = true;
    bool filed = false;         ///< has a live entry in the heads heap
    bool needs_polish = false;  ///< greedy-degraded under the ls backend
  };

  /// Daemon-side per-component state, kept at the graph's component root
  /// (the fast path must not scan members) and folded together whenever an
  /// arrival joins components.
  struct Agg {
    std::vector<std::uint32_t> strands;  ///< alive strand ids (superset)
    std::vector<std::uint32_t> pending;  ///< arrived, not yet placed
    std::uint32_t tail_strand = kNoStrand;  ///< fast appends land here
    std::uint64_t max_solved_priority = 0;
    bool any_solved = false;
  };

  /// Merges `from` into `into` and empties `from`.
  void absorb(Agg& into, Agg& from);

  void process_root(ActionId root, bool allow_moves);
  /// The O(1) greedy placement; false = conditions not met, caller falls
  /// back to a full re-solve.
  bool try_fast_appends(Agg& agg);
  void full_resolve(Agg& agg, ActionId root, bool allow_moves);
  void push_head(std::uint32_t sid);
  void commit_walk(bool finishing);
  void commit_at(std::uint32_t sid, std::size_t pos, std::uint64_t now);
  void emit(CaptureRecordKind kind, std::uint64_t time, std::string payload);

  Universe initial_;  ///< pristine, copy-on-write source of rewinds
  Universe working_;  ///< all components' current final state
  StreamOptions options_;
  ReconcilerOptions solve_options_;  ///< derived view solve_component reads
  CaptureSink* capture_;
  IncrementalConstraintGraph graph_;
  std::uint64_t digest0_;
  std::uint64_t epoch_ = 0;
  bool finished_ = false;

  std::vector<std::uint32_t> next_position_;  ///< per log
  std::vector<std::uint64_t> ingest_ns_;      ///< per action
  /// Per action: 0 = uncommitted, else RunStatus + 1 as committed.
  std::vector<std::uint8_t> committed_status_;
  std::vector<std::uint32_t> strand_of_;  ///< per action, kNoStrand = pending
  std::vector<std::uint8_t> frozen_;      ///< per action: in a frozen tail
  /// Per action: the epoch a fast append placed it (0 otherwise). The
  /// commit quiescence gate takes the max of this and the strand's
  /// last_disrupt_epoch, so a continuously-appended tail strand still
  /// commits its settled head entries.
  std::vector<std::uint64_t> placed_epoch_;

  std::vector<Strand> strands_;
  std::vector<Agg> aggs_;  ///< per action, valid at graph component roots
  std::vector<ActionId> merged_roots_;  ///< add_action scratch

  /// Lazy min-heap over strand heads: (priority of next committable entry,
  /// strand id). Stale entries are dropped on inspection.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> heads_;

  std::vector<CommitEntry> committed_;
  StreamCounters counters_;
  SearchStats stats_;
  LatencyHistogram latency_;
  Crc32 crc_;
};

/// The threaded daemon: a producer calls `submit` (wait-free unless the
/// ring is full), a dedicated consumer thread drains the ring in batches
/// and runs one epoch per batch. `finish()` closes the ring, joins and
/// returns the canonical result.
class StreamDaemon {
 public:
  static constexpr std::size_t kRingSlots = 1 << 14;

  /// `max_batch` caps how many arrivals one epoch ingests (the "batch" the
  /// epoch budget covers).
  StreamDaemon(Universe initial, StreamOptions options,
               std::size_t max_batch = 256);
  ~StreamDaemon();

  StreamDaemon(const StreamDaemon&) = delete;
  StreamDaemon& operator=(const StreamDaemon&) = delete;

  /// Producer side; false when the ring is full (caller sheds or retries).
  [[nodiscard]] bool try_submit(LogId log, ActionPtr action);
  /// Producer side; spins until the ring accepts.
  void submit(LogId log, ActionPtr action);

  /// Closes ingest, drains, joins and finishes the core.
  [[nodiscard]] StreamResult finish();

  /// The core — safe to inspect only after `finish()` returned.
  [[nodiscard]] const StreamReconciler& reconciler() const { return core_; }

 private:
  struct Item {
    ActionPtr action;
    std::uint32_t log = 0;
    std::uint64_t submit_ns = 0;
  };

  void consume();

  StreamReconciler core_;
  std::size_t max_batch_;
  SpscRing<Item, kRingSlots> ring_;
  std::atomic<bool> closed_{false};
  std::thread consumer_;
};

/// Monotonic nanoseconds (steady clock), the daemon's latency timebase.
[[nodiscard]] std::uint64_t stream_now_ns();

}  // namespace icecube
