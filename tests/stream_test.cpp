// Streaming reconciler daemon (DESIGN.md §15).
//
// The contract under test: a StreamReconciler fed the same logs as a batch
// `Reconciler::run()` — in ANY per-log-order-preserving interleaving, with
// ANY epoch batch size, under either backend — finishes with the identical
// merged schedule, statuses and final state. Plus the commit discipline
// (greedy + replica-at-a-time arrival never violates a commitment), the
// incremental constraint graph's element-for-element equality with the
// dense oracle, the threaded daemon, and streaming-capture replay.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "capture/capture_sink.hpp"
#include "capture/replay_engine.hpp"
#include "capture/wire_log_format.hpp"
#include "core/constraint_builder.hpp"
#include "core/reconciler.hpp"
#include "core/relations.hpp"
#include "solver/components.hpp"
#include "solver/graph.hpp"
#include "solver/local_search.hpp"
#include "stream/daemon.hpp"
#include "stream/stream_spec_codec.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using workload::FagesSpec;
using workload::Generated;
using workload::fages_workload;

struct Arrival {
  LogId log;
  ActionPtr action;
};

/// Interleaves the generated logs into one ingest stream. Per-log order is
/// always preserved; the cross-log order is the adversarial knob.
std::vector<Arrival> make_arrivals(const Generated& gen, StreamArrival mode,
                                   std::uint64_t seed = 42) {
  std::vector<Arrival> out;
  std::vector<std::size_t> next(gen.logs.size(), 0);
  std::size_t total = 0;
  for (const Log& log : gen.logs) total += log.size();
  out.reserve(total);
  switch (mode) {
    case StreamArrival::kFlatten:
      for (std::size_t l = 0; l < gen.logs.size(); ++l) {
        for (std::size_t p = 0; p < gen.logs[l].size(); ++p) {
          out.push_back({LogId(static_cast<std::uint32_t>(l)),
                         gen.logs[l].ptr(p)});
        }
      }
      break;
    case StreamArrival::kRoundRobin:
      for (std::size_t taken = 0; taken < total;) {
        for (std::size_t l = 0; l < gen.logs.size(); ++l) {
          if (next[l] >= gen.logs[l].size()) continue;
          out.push_back({LogId(static_cast<std::uint32_t>(l)),
                         gen.logs[l].ptr(next[l]++)});
          ++taken;
        }
      }
      break;
    case StreamArrival::kShuffled: {
      Rng rng(seed);
      for (std::size_t taken = 0; taken < total; ++taken) {
        std::uint64_t pick = rng.below(total - taken);
        for (std::size_t l = 0; l < gen.logs.size(); ++l) {
          const std::size_t remaining = gen.logs[l].size() - next[l];
          if (pick < remaining) {
            out.push_back({LogId(static_cast<std::uint32_t>(l)),
                           gen.logs[l].ptr(next[l]++)});
            break;
          }
          pick -= remaining;
        }
      }
      break;
    }
  }
  return out;
}

/// A run reduced to canonical, id-space-free form: executed actions as
/// stream-priority keys in schedule order, everything else as a sorted key
/// set, and the final-state digest.
struct CanonicalRun {
  std::vector<std::uint64_t> executed;
  std::vector<std::uint64_t> not_executed;
  std::uint64_t state_digest = 0;
};

CanonicalRun run_batch(const Generated& gen, SolverKind backend) {
  ReconcilerOptions options;
  options.backend = backend;
  // Force the sparse component-decomposed path regardless of problem size;
  // that is the construction the daemon's equivalence contract names.
  options.dense_graph_limit = 0;
  Reconciler reconciler(gen.initial, gen.logs, options);
  const ReconcileResult result = reconciler.run();
  EXPECT_FALSE(result.outcomes.empty());
  const Outcome& best = result.outcomes.front();
  const std::vector<ActionRecord>& records = reconciler.records();
  CanonicalRun run;
  for (ActionId id : best.schedule) {
    run.executed.push_back(stream_priority(records[id.index()]));
  }
  for (ActionId id : best.skipped) {
    run.not_executed.push_back(stream_priority(records[id.index()]));
  }
  for (ActionId id : best.cutset) {
    run.not_executed.push_back(stream_priority(records[id.index()]));
  }
  std::sort(run.not_executed.begin(), run.not_executed.end());
  run.state_digest = universe_state_digest(best.final_state);
  return run;
}

CanonicalRun canonical(const StreamResult& result,
                       const std::vector<ActionRecord>& records) {
  CanonicalRun run;
  for (std::size_t i = 0; i < result.sequence.size(); ++i) {
    const std::uint64_t key =
        stream_priority(records[result.sequence[i].index()]);
    if (result.status[i] == RunStatus::kExecuted) {
      run.executed.push_back(key);
    } else {
      run.not_executed.push_back(key);
    }
  }
  std::sort(run.not_executed.begin(), run.not_executed.end());
  run.state_digest = universe_state_digest(result.outcome.final_state);
  return run;
}

struct CoreRun {
  CanonicalRun canon;
  StreamCounters counters;
  std::vector<CommitEntry> committed;
  std::vector<std::uint64_t> keys;  ///< daemon id -> stream priority
  std::vector<RunStatus> final_status;  ///< daemon id -> merged status
  std::uint64_t latency_count = 0;
};

CoreRun run_core(const Generated& gen, const std::vector<Arrival>& arrivals,
                 SolverKind backend, std::size_t batch,
                 std::uint64_t epoch_budget_us = 0) {
  StreamOptions options;
  options.backend = backend;
  options.epoch_budget_us = epoch_budget_us;
  StreamReconciler core(gen.initial, options);
  std::size_t since_epoch = 0;
  for (const Arrival& a : arrivals) {
    core.ingest(a.log, a.action);
    if (batch > 0 && ++since_epoch >= batch) {
      core.run_epoch();
      since_epoch = 0;
    }
  }
  if (batch > 0) core.run_epoch();
  const StreamResult result = core.finish();
  CoreRun run;
  run.canon = canonical(result, core.graph().records());
  run.counters = core.counters();
  run.committed = core.committed();
  run.latency_count = core.commit_latency().count();
  for (const ActionRecord& rec : core.graph().records()) {
    run.keys.push_back(stream_priority(rec));
  }
  run.final_status.resize(result.sequence.size(), RunStatus::kDropped);
  for (std::size_t i = 0; i < result.sequence.size(); ++i) {
    run.final_status[result.sequence[i].index()] = result.status[i];
  }
  return run;
}

// --- equivalence with batch reconciliation --------------------------------

TEST(StreamEquivalence, AnyArrivalAnyBatchAnyBackendMatchesBatch) {
  FagesSpec spec;
  spec.seed = 7;
  const Generated gen = fages_workload(spec);
  const StreamArrival kModes[] = {StreamArrival::kFlatten,
                                  StreamArrival::kRoundRobin,
                                  StreamArrival::kShuffled};
  const std::size_t kBatches[] = {1, 7, 64, 0};
  for (SolverKind backend : {SolverKind::kGreedy, SolverKind::kLocalSearch}) {
    const CanonicalRun batch = run_batch(gen, backend);
    EXPECT_FALSE(batch.executed.empty());
    for (StreamArrival mode : kModes) {
      for (std::size_t epoch_batch : kBatches) {
        SCOPED_TRACE(std::string(to_string(backend)) + "/" +
                     std::string(to_string(mode)) + "/batch=" +
                     std::to_string(epoch_batch));
        const CoreRun stream =
            run_core(gen, make_arrivals(gen, mode), backend, epoch_batch);
        EXPECT_EQ(stream.canon.executed, batch.executed);
        EXPECT_EQ(stream.canon.not_executed, batch.not_executed);
        EXPECT_EQ(stream.canon.state_digest, batch.state_digest);
        EXPECT_EQ(stream.counters.ingested, stream.keys.size());
      }
    }
  }
}

TEST(StreamEquivalence, MultipleSeedsAndShapes) {
  for (std::uint64_t seed : {1ULL, 3ULL, 11ULL}) {
    FagesSpec spec;
    spec.seed = seed;
    spec.replicas = 4;
    spec.tasks_per_replica = 25;
    spec.conflict_ratio = 0.4;
    const Generated gen = fages_workload(spec);
    const CanonicalRun batch = run_batch(gen, SolverKind::kGreedy);
    const CoreRun stream = run_core(
        gen, make_arrivals(gen, StreamArrival::kShuffled, seed * 77 + 1),
        SolverKind::kGreedy, 5);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    EXPECT_EQ(stream.canon.executed, batch.executed);
    EXPECT_EQ(stream.canon.not_executed, batch.not_executed);
    EXPECT_EQ(stream.canon.state_digest, batch.state_digest);
  }
}

TEST(StreamEquivalence, BudgetDegradedEpochsStillFinishAsBatch) {
  // A 1µs epoch budget runs out after an epoch's first component, so the
  // rest degrade to their greedy construction; finish re-polishes them with
  // local search, which restores the batch answer.
  FagesSpec spec;
  spec.seed = 7;
  const Generated gen = fages_workload(spec);
  const CanonicalRun batch = run_batch(gen, SolverKind::kLocalSearch);
  const CoreRun stream =
      run_core(gen, make_arrivals(gen, StreamArrival::kShuffled),
               SolverKind::kLocalSearch, 7, /*epoch_budget_us=*/1);
  EXPECT_GT(stream.counters.degraded_epochs, 0u);
  EXPECT_EQ(stream.canon.executed, batch.executed);
  EXPECT_EQ(stream.canon.not_executed, batch.not_executed);
  EXPECT_EQ(stream.canon.state_digest, batch.state_digest);
}

// --- commit discipline ----------------------------------------------------

TEST(StreamCommit, GreedyFlattenNeverViolatesACommitment) {
  FagesSpec spec;
  spec.seed = 5;
  const Generated gen = fages_workload(spec);
  const CoreRun run = run_core(gen, make_arrivals(gen, StreamArrival::kFlatten),
                               SolverKind::kGreedy, 1);
  EXPECT_EQ(run.counters.commit_violations, 0u);
  // Replica-at-a-time arrival keeps priorities ascending, so every arrival
  // takes the O(1) append path; the full-resolve counter stays at zero.
  EXPECT_EQ(run.counters.full_resolves, 0u);
  EXPECT_EQ(run.counters.fast_appends, run.counters.ingested);
  // Everything commits (at the latest in finish), exactly once.
  EXPECT_EQ(run.committed.size(), run.counters.ingested);
  EXPECT_EQ(run.counters.committed, run.counters.ingested);
  EXPECT_EQ(run.latency_count, run.counters.ingested);
}

TEST(StreamCommit, CommittedLogEqualsFinalMergeUnderGreedyFlatten) {
  FagesSpec spec;
  spec.seed = 9;
  const Generated gen = fages_workload(spec);
  const CoreRun run = run_core(gen, make_arrivals(gen, StreamArrival::kFlatten),
                               SolverKind::kGreedy, 4);
  // The committed prefix, replayed in commitment order, is the final merged
  // sequence — same actions, same order, same statuses.
  ASSERT_EQ(run.committed.size(), run.canon.executed.size() +
                                      run.canon.not_executed.size());
  std::vector<std::uint64_t> committed_executed;
  for (const CommitEntry& entry : run.committed) {
    EXPECT_EQ(entry.status, run.final_status[entry.id.index()]);
    if (entry.status == RunStatus::kExecuted) {
      committed_executed.push_back(run.keys[entry.id.index()]);
    }
  }
  EXPECT_EQ(committed_executed, run.canon.executed);
}

TEST(StreamCommit, ViolationsAreCountedNotHidden) {
  // Adversarial arrival (shuffled, tiny batches) may flip statuses after
  // commitment; the daemon must count those flips, never crash, and still
  // converge to the batch answer (checked by the equivalence suite). Here:
  // every ingested action ends up committed exactly once.
  FagesSpec spec;
  spec.seed = 13;
  const Generated gen = fages_workload(spec);
  const CoreRun run =
      run_core(gen, make_arrivals(gen, StreamArrival::kShuffled, 99),
               SolverKind::kGreedy, 1);
  EXPECT_EQ(run.committed.size(), run.counters.ingested);
  EXPECT_EQ(run.counters.committed, run.counters.ingested);
  // Each action commits exactly once; a commitment the final merge
  // contradicts must be accounted as a violation (a promise may be broken,
  // but never silently).
  std::vector<int> seen(run.keys.size(), 0);
  std::uint64_t broken = 0;
  for (const CommitEntry& entry : run.committed) {
    EXPECT_EQ(++seen[entry.id.index()], 1);
    if (entry.status != run.final_status[entry.id.index()]) ++broken;
  }
  EXPECT_LE(broken, run.counters.commit_violations);
}

// --- incremental constraint graph ----------------------------------------

/// All-pairs oracle of the overlap relation: per action, the other actions
/// sharing at least one target with it, ascending.
std::vector<std::vector<ActionId>> shared_target_oracle(
    const std::vector<ActionRecord>& records) {
  std::vector<std::vector<ObjectId>> targets;
  for (const ActionRecord& r : records) targets.push_back(r.action->targets());
  std::vector<std::vector<ActionId>> out(records.size());
  for (std::size_t a = 0; a < records.size(); ++a) {
    for (std::size_t b = 0; b < records.size(); ++b) {
      const bool shares = std::any_of(
          targets[a].begin(), targets[a].end(), [&](ObjectId t) {
            return std::find(targets[b].begin(), targets[b].end(), t) !=
                   targets[b].end();
          });
      if (a != b && shares) out[a].push_back(ActionId(b));
    }
  }
  return out;
}

TEST(IncrementalGraph, MatchesBatchBuilderUnderInterleavedArrival) {
  // The oracles are all-pairs scans over the same record sequence (ids in
  // arrival order): the dense builder's raw D edges and the shared-target
  // relation.
  FagesSpec spec;
  spec.seed = 21;
  const Generated gen = fages_workload(spec);
  for (StreamArrival mode :
       {StreamArrival::kRoundRobin, StreamArrival::kShuffled}) {
    SCOPED_TRACE(std::string(to_string(mode)));
    const std::vector<Arrival> arrivals = make_arrivals(gen, mode, 17);
    IncrementalConstraintGraph incremental(gen.initial);
    std::vector<ActionRecord> records;
    std::vector<std::size_t> next(gen.logs.size(), 0);
    for (const Arrival& a : arrivals) {
      const std::size_t pos = next[a.log.index()]++;
      incremental.add_action(a.action, a.log, pos);
      records.push_back({a.action, a.log, pos});
    }
    const Relations dense = Relations::from_constraints(
        build_constraints_dense(gen.initial, records));
    const std::vector<std::vector<ActionId>> overlaps =
        shared_target_oracle(records);
    const SolverGraph& inc = incremental.graph();
    ASSERT_EQ(inc.n, records.size());
    std::vector<std::vector<ActionId>> preds(inc.n);
    std::vector<std::vector<ActionId>> succs(inc.n);
    std::uint64_t pairs = 0;
    std::uint64_t directions = 0;
    for (std::size_t a = 0; a < inc.n; ++a) {
      dense.raw_successors(ActionId(a)).for_each([&](std::size_t b) {
        succs[a].push_back(ActionId(b));
        preds[b].push_back(ActionId(a));
      });
      for (ActionId other : overlaps[a]) {
        const std::size_t b = other.index();
        if (b < a) continue;
        // Each overlapping pair is evaluated once per log-reversing
        // direction (a same-log pair is safe in its recorded order).
        ++pairs;
        directions += (records[a].before_in_log(records[b]) ? 0 : 1) +
                      (records[b].before_in_log(records[a]) ? 0 : 1);
      }
    }
    for (std::size_t i = 0; i < inc.n; ++i) {
      EXPECT_EQ(inc.preds[i], preds[i]) << "preds of " << i;
      EXPECT_EQ(inc.succs[i], succs[i]) << "succs of " << i;
      EXPECT_EQ(inc.overlap_lists[i], overlaps[i]) << "overlap of " << i;
    }
    // O(overlap) work: one shared-target set per overlapping pair.
    EXPECT_EQ(incremental.build_stats().pairs_evaluated, directions);
    EXPECT_EQ(incremental.build_stats().target_set_builds, pairs);
  }
}

TEST(IncrementalGraph, ReportsThePreArrivalRootsItJoins) {
  FagesSpec spec;
  spec.seed = 9;
  const Generated gen = fages_workload(spec);
  IncrementalConstraintGraph graph(gen.initial);
  std::vector<std::size_t> next(gen.logs.size(), 0);
  std::vector<ActionId> merged;
  std::size_t multi_joins = 0;  // arrivals bridging two or more components
  for (const Arrival& a : make_arrivals(gen, StreamArrival::kShuffled, 5)) {
    std::vector<ActionId> before;
    for (std::size_t v = 0; v < graph.size(); ++v) {
      before.push_back(graph.component_root(ActionId(v)));
    }
    const ActionId id =
        graph.add_action(a.action, a.log, next[a.log.index()]++, &merged);
    // Distinct roots in order of the smallest partner met in each.
    std::vector<ActionId> expected;
    for (ActionId partner : graph.graph().overlap_lists[id.index()]) {
      const ActionId root = before[partner.index()];
      if (std::find(expected.begin(), expected.end(), root) ==
          expected.end()) {
        expected.push_back(root);
      }
    }
    EXPECT_EQ(merged, expected) << "arrival " << id.value();
    for (ActionId root : merged) {
      EXPECT_EQ(graph.component_root(root), graph.component_root(id));
    }
    multi_joins += merged.size() >= 2 ? 1 : 0;
  }
  EXPECT_GT(multi_joins, 0u);
}

TEST(IncrementalGraph, DirtyRootsCoverExactlyTheTouchedComponents) {
  FagesSpec spec;
  spec.seed = 2;
  spec.replicas = 2;
  spec.tasks_per_replica = 10;
  const Generated gen = fages_workload(spec);
  IncrementalConstraintGraph graph(gen.initial);
  std::vector<std::size_t> next(gen.logs.size(), 0);
  const std::vector<Arrival> arrivals =
      make_arrivals(gen, StreamArrival::kFlatten);
  std::size_t added = 0;
  for (const Arrival& a : arrivals) {
    graph.add_action(a.action, a.log, next[a.log.index()]++);
    ++added;
    if (added % 5 == 0) {
      const std::vector<ActionId> dirty = graph.take_dirty_roots();
      EXPECT_FALSE(dirty.empty());
      for (ActionId root : dirty) {
        EXPECT_EQ(graph.component_root(root), root);
      }
      // Drained: nothing dirty until the next arrival.
      EXPECT_TRUE(graph.take_dirty_roots().empty());
    }
  }
}

// --- the threaded daemon --------------------------------------------------

TEST(StreamDaemon, ThreadedIngestMatchesBatch) {
  FagesSpec spec;
  spec.seed = 31;
  const Generated gen = fages_workload(spec);
  const CanonicalRun batch = run_batch(gen, SolverKind::kGreedy);
  StreamOptions options;
  StreamDaemon daemon(gen.initial, options, /*max_batch=*/32);
  for (const Arrival& a : make_arrivals(gen, StreamArrival::kFlatten)) {
    daemon.submit(a.log, a.action);
  }
  const StreamResult result = daemon.finish();
  const CanonicalRun streamed =
      canonical(result, daemon.reconciler().graph().records());
  EXPECT_EQ(streamed.executed, batch.executed);
  EXPECT_EQ(streamed.not_executed, batch.not_executed);
  EXPECT_EQ(streamed.state_digest, batch.state_digest);
  EXPECT_GT(daemon.reconciler().counters().epochs, 0u);
}

// --- spec codec and capture replay ---------------------------------------

TEST(StreamCodec, SpecRoundTripsThroughWireText) {
  StreamSpec spec;
  spec.workload.replicas = 5;
  spec.workload.tasks_per_replica = 17;
  spec.workload.dependency_density = 2.25;
  spec.workload.conflict_ratio = 0.375;
  spec.workload.shared_resources = 3;
  spec.workload.resource_capacity = 2;
  spec.workload.seed = 77;
  spec.backend = SolverKind::kLocalSearch;
  spec.arrival = StreamArrival::kShuffled;
  spec.arrival_seed = 123;
  spec.batch = 9;
  spec.commit_quiescence = 3;
  const StreamSpecDecode decoded = decode_stream_spec(encode_stream_spec(spec));
  ASSERT_TRUE(decoded.ok()) << decoded.error.message();
  EXPECT_EQ(encode_stream_spec(decoded.spec), encode_stream_spec(spec));
  EXPECT_EQ(decoded.spec.backend, SolverKind::kLocalSearch);
  EXPECT_EQ(decoded.spec.arrival, StreamArrival::kShuffled);
  EXPECT_EQ(decoded.spec.batch, 9u);
}

TEST(StreamCodec, RejectsGarbage) {
  EXPECT_FALSE(decode_stream_spec("").ok());
  EXPECT_FALSE(decode_stream_spec("chaos-spec 1\n").ok());
  EXPECT_FALSE(decode_stream_spec("stream-spec 2\n").ok());
  EXPECT_FALSE(decode_stream_spec("stream-spec 1\nbackend dfs9\n").ok());
}

std::string capture_bytes(const std::vector<CaptureRecord>& records) {
  std::string bytes = encode_capture_header();
  for (const CaptureRecord& record : records) {
    append_capture_frame(bytes, record);
  }
  return bytes;
}

TEST(StreamCapture, CapturedRunReplaysFaithfully) {
  StreamSpec spec;
  spec.workload.tasks_per_replica = 15;
  spec.arrival = StreamArrival::kShuffled;
  spec.batch = 8;
  MemoryCaptureSink sink;
  const StreamRunReport report = run_stream_captured(spec, sink);
  ASSERT_FALSE(sink.records().empty());
  EXPECT_EQ(sink.records().front().kind, CaptureRecordKind::kSpec);
  EXPECT_EQ(sink.records().back().kind, CaptureRecordKind::kSummary);
  const ReplayResult replay = replay_capture(capture_bytes(sink.records()), {});
  EXPECT_TRUE(replay.error.ok()) << replay.error.message();
  EXPECT_TRUE(replay.faithful())
      << (replay.divergence ? replay.divergence->to_json() : "crc mismatch");
  EXPECT_EQ(replay.frames_compared, replay.recorded_frames);
  EXPECT_TRUE(replay.crc_checked);
  EXPECT_TRUE(replay.crc_match);
  EXPECT_EQ(replay.report.trace_crc, report.trace_crc);
}

TEST(StreamCapture, TamperedFrameIsFlaggedAsDivergent) {
  StreamSpec spec;
  spec.workload.tasks_per_replica = 10;
  MemoryCaptureSink sink;
  (void)run_stream_captured(spec, sink);
  std::vector<CaptureRecord> records = sink.take();
  // Flip one recorded ingest payload; the re-run regenerates the true one.
  bool tampered = false;
  for (CaptureRecord& record : records) {
    if (record.kind == CaptureRecordKind::kAction) {
      record.payload += " tampered";
      tampered = true;
      break;
    }
  }
  ASSERT_TRUE(tampered);
  const ReplayResult replay = replay_capture(capture_bytes(records), {});
  EXPECT_TRUE(replay.error.ok()) << replay.error.message();
  EXPECT_FALSE(replay.faithful());
  ASSERT_TRUE(replay.divergence.has_value());
}

TEST(StreamCapture, LocalSearchBackendReplaysFaithfully) {
  StreamSpec spec;
  spec.workload.tasks_per_replica = 12;
  spec.backend = SolverKind::kLocalSearch;
  spec.arrival = StreamArrival::kRoundRobin;
  spec.batch = 16;
  MemoryCaptureSink sink;
  (void)run_stream_captured(spec, sink);
  const ReplayResult replay = replay_capture(capture_bytes(sink.records()), {});
  EXPECT_TRUE(replay.faithful())
      << (replay.divergence ? replay.divergence->to_json() : "crc mismatch");
}

}  // namespace
}  // namespace icecube
