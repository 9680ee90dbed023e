// Every output check of the benchmark must accept a real result and reject
// a deliberately corrupted one.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/reconciler.hpp"
#include "cpp/checks.hpp"
#include "objects/counter.hpp"
#include "stream/daemon.hpp"
#include "workload/fages.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using namespace icecube;

bool mentions(const Problems& problems, const std::string& needle) {
  return std::any_of(problems.begin(), problems.end(),
                     [&](const std::string& p) {
                       return p.find(needle) != std::string::npos;
                     });
}

/// A small Fages problem: same-log producer→consumer pairs are D edges,
/// claim cells are contended across replicas.
workload::FagesSpec small_fages() {
  workload::FagesSpec spec;
  spec.replicas = 3;
  spec.tasks_per_replica = 5;
  spec.shared_resources = 2;
  spec.conflict_ratio = 0.6;
  spec.seed = 7;
  return spec;
}

struct DfsRun {
  workload::Generated problem;
  std::unique_ptr<Reconciler> reconciler;
  Outcome best;
};

DfsRun dfs_merge(workload::Generated problem) {
  DfsRun run{std::move(problem), nullptr, {}};
  ReconcilerOptions options;
  options.failure_mode = FailureMode::kSkipAction;
  options.limits.max_schedules = 2000;
  run.reconciler = std::make_unique<Reconciler>(run.problem.initial,
                                                run.problem.logs, options);
  run.best = run.reconciler->run().best();
  return run;
}

std::function<bool(std::size_t, std::size_t)> depends_of(const Reconciler& r) {
  return [&r](std::size_t a, std::size_t b) {
    return r.relations().depends_raw(ActionId(static_cast<std::uint32_t>(a)),
                                     ActionId(static_cast<std::uint32_t>(b)));
  };
}

/// Positions (i < j) of an executed D edge a → b in the schedule.
std::pair<std::size_t, std::size_t> find_edge(const DfsRun& run) {
  const auto dep = depends_of(*run.reconciler);
  const auto& s = run.best.schedule;
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (std::size_t j = i + 1; j < s.size(); ++j) {
      if (dep(s[i].index(), s[j].index())) return {i, j};
    }
  }
  return {0, 0};
}

TEST(InteractiveChecks, AcceptRealMerges) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    workload::CounterSpec spec;
    spec.actions_per_replica = 2;
    spec.seed = seed;
    const DfsRun run = dfs_merge(workload::counter_workload(spec));
    const std::size_t n = run.reconciler->records().size();
    EXPECT_TRUE(check_replay(run.problem.initial, run.reconciler->records(),
                             run.best)
                    .empty());
    EXPECT_TRUE(check_partition(n, run.best).empty());
    EXPECT_TRUE(
        check_dependences(n, depends_of(*run.reconciler), run.best).empty());
  }
}

TEST(InteractiveChecks, SwappedScheduleEntriesAreRejected) {
  const DfsRun run = dfs_merge(workload::fages_workload(small_fages()));
  const auto [i, j] = find_edge(run);
  ASSERT_LT(i, j) << "fixture needs an executed dependence edge";
  Outcome bad = run.best;
  std::swap(bad.schedule[i], bad.schedule[j]);
  const std::size_t n = run.reconciler->records().size();
  EXPECT_TRUE(mentions(check_dependences(n, depends_of(*run.reconciler), bad),
                       "violated"));
  EXPECT_TRUE(mentions(
      check_replay(run.problem.initial, run.reconciler->records(), bad),
      "does not execute"));
}

TEST(InteractiveChecks, AlteredFinalStateIsRejected) {
  workload::CounterSpec spec;
  spec.seed = 3;
  const DfsRun run = dfs_merge(workload::counter_workload(spec));
  Outcome bad = run.best;
  ASSERT_TRUE(IncrementAction(ObjectId(0), 1).execute(bad.final_state));
  EXPECT_TRUE(mentions(
      check_replay(run.problem.initial, run.reconciler->records(), bad),
      "differs from final_state"));
}

TEST(InteractiveChecks, BrokenPartitionIsRejected) {
  workload::CounterSpec spec;
  spec.seed = 4;
  const DfsRun run = dfs_merge(workload::counter_workload(spec));
  const std::size_t n = run.reconciler->records().size();
  ASSERT_FALSE(run.best.schedule.empty());
  Outcome dropped = run.best;
  dropped.schedule.pop_back();
  EXPECT_TRUE(mentions(check_partition(n, dropped), "appears 0 times"));
  Outcome doubled = run.best;
  doubled.skipped.push_back(doubled.schedule.front());
  EXPECT_TRUE(mentions(check_partition(n, doubled), "appears 2 times"));
}

// --- Fages ----------------------------------------------------------------

struct GreedyRun {
  workload::FagesSpec spec;
  workload::Generated problem;
  std::vector<ActionRecord> records;
  Outcome best;

  [[nodiscard]] FagesRun fages(const Universe* final_state) const {
    FagesRun run;
    for (ActionId id : best.schedule) {
      run.executed.push_back(records[id.index()].action.get());
    }
    run.final_state = final_state;
    return run;
  }
};

GreedyRun greedy_merge(const workload::FagesSpec& spec) {
  GreedyRun run{spec, workload::fages_workload(spec), {}, {}};
  ReconcilerOptions options;
  options.backend = SolverKind::kGreedy;
  Reconciler reconciler(run.problem.initial, run.problem.logs, options);
  run.best = reconciler.run().best();
  run.records = reconciler.records();
  return run;
}

TEST(FagesChecks, AcceptRealMerge) {
  const GreedyRun run = greedy_merge(small_fages());
  EXPECT_TRUE(check_fages(run.problem.initial,
                          static_cast<std::size_t>(run.spec.shared_resources),
                          run.fages(&run.best.final_state))
                  .empty());
}

TEST(FagesChecks, AlteredCellIsRejected) {
  const GreedyRun run = greedy_merge(small_fages());
  Universe altered = run.best.final_state;
  const auto cell = ObjectId(static_cast<std::uint32_t>(altered.size() - 1));
  ASSERT_TRUE(altered.as<workload::FagesCell>(cell).apply(+1));
  EXPECT_TRUE(mentions(
      check_fages(run.problem.initial,
                  static_cast<std::size_t>(run.spec.shared_resources),
                  run.fages(&altered)),
      "conservation gives"));
}

TEST(FagesChecks, ClaimOverCapacityIsRejected) {
  const GreedyRun run = greedy_merge(small_fages());
  const auto claims = static_cast<std::size_t>(run.spec.shared_resources);
  FagesRun over = run.fages(&run.best.final_state);
  // Add a claimer of a claim cell the merge already used to capacity.
  const workload::FagesTaskAction* extra = nullptr;
  for (const ActionRecord& rec : run.records) {
    const auto* task =
        dynamic_cast<const workload::FagesTaskAction*>(rec.action.get());
    const bool executed =
        std::find(over.executed.begin(), over.executed.end(),
                  rec.action.get()) != over.executed.end();
    if (task == nullptr || executed) continue;
    for (ObjectId c : task->consumed()) {
      if (c.index() < claims &&
          run.best.final_state.as<workload::FagesCell>(c).value() == 0) {
        extra = task;
      }
    }
  }
  ASSERT_NE(extra, nullptr) << "fixture needs a losing claimer";
  over.executed.push_back(extra);
  EXPECT_TRUE(mentions(check_fages(run.problem.initial, claims, over),
                       "over capacity"));
}

TEST(FagesChecks, ConsumerBeforeProducerIsRejected) {
  const GreedyRun run = greedy_merge(small_fages());
  FagesRun swapped = run.fages(&run.best.final_state);
  // Move the first task that consumes a token in front of its producer.
  const auto claims = static_cast<std::size_t>(run.spec.shared_resources);
  bool moved = false;
  for (std::size_t k = 0; k < swapped.executed.size() && !moved; ++k) {
    const auto* task =
        dynamic_cast<const workload::FagesTaskAction*>(swapped.executed[k]);
    for (ObjectId c : task->consumed()) {
      if (c.index() < claims) continue;
      std::rotate(swapped.executed.begin(), swapped.executed.begin() + k,
                  swapped.executed.begin() + k + 1);
      moved = true;
      break;
    }
  }
  ASSERT_TRUE(moved);
  EXPECT_TRUE(mentions(check_fages(run.problem.initial, claims, swapped),
                       "before its producer"));
}

TEST(FagesChecks, LocalSearchWorseThanGreedyIsRejected) {
  EXPECT_TRUE(check_ls_not_worse(-10.0, -9.0).empty());
  EXPECT_TRUE(mentions(check_ls_not_worse(-8.0, -9.0), "worse than greedy"));
}

// --- streaming -------------------------------------------------------------

struct StreamRun {
  StreamResult result;
  std::vector<ActionRecord> records;
  std::vector<CommitEntry> committed;
  std::size_t ingested = 0;
};

StreamRun stream_merge(const workload::Generated& problem) {
  StreamOptions options;
  options.backend = SolverKind::kGreedy;
  StreamReconciler core(problem.initial, options);
  for (std::size_t l = 0; l < problem.logs.size(); ++l) {
    for (std::size_t p = 0; p < problem.logs[l].size(); ++p) {
      core.ingest(LogId(static_cast<std::uint32_t>(l)), problem.logs[l].ptr(p));
      if (p % 4 == 3) core.run_epoch();
    }
  }
  StreamRun run;
  run.result = core.finish();
  run.records = core.graph().records();
  run.committed = core.committed();
  run.ingested = core.counters().ingested;
  return run;
}

TEST(StreamChecks, StreamedEqualsBatch) {
  const GreedyRun batch = greedy_merge(small_fages());
  const StreamRun stream = stream_merge(batch.problem);
  EXPECT_TRUE(check_same_merge(canonical_stream(stream.records, stream.result),
                               canonical_batch(batch.records, batch.best))
                  .empty());
  EXPECT_TRUE(
      check_commits(stream.ingested, stream.committed, stream.result).empty());
}

TEST(StreamChecks, DivergentStreamIsRejected) {
  const GreedyRun batch = greedy_merge(small_fages());
  const StreamRun stream = stream_merge(batch.problem);
  const CanonicalMerge reference = canonical_batch(batch.records, batch.best);
  CanonicalMerge swapped = canonical_stream(stream.records, stream.result);
  ASSERT_GE(swapped.executed.size(), 2u);
  std::swap(swapped.executed[0], swapped.executed[1]);
  EXPECT_TRUE(mentions(check_same_merge(swapped, reference),
                       "schedule differs"));
  CanonicalMerge other_state = canonical_stream(stream.records, stream.result);
  ++other_state.state_digest;
  EXPECT_TRUE(mentions(check_same_merge(other_state, reference),
                       "final state differs"));
}

TEST(StreamChecks, BrokenCommitsAreRejected) {
  const StreamRun stream =
      stream_merge(workload::fages_workload(small_fages()));
  ASSERT_FALSE(stream.committed.empty());
  std::vector<CommitEntry> dropped = stream.committed;
  dropped.pop_back();
  EXPECT_TRUE(mentions(check_commits(stream.ingested, dropped, stream.result),
                       "never committed"));
  std::vector<CommitEntry> twice = stream.committed;
  twice.push_back(twice.front());
  EXPECT_TRUE(mentions(check_commits(stream.ingested, twice, stream.result),
                       "committed twice"));
  std::vector<CommitEntry> flipped = stream.committed;
  flipped.front().status = flipped.front().status == RunStatus::kExecuted
                               ? RunStatus::kDropped
                               : RunStatus::kExecuted;
  EXPECT_TRUE(mentions(check_commits(stream.ingested, flipped, stream.result),
                       "contradict"));
}

// --- anti-entropy ----------------------------------------------------------

std::vector<SiteFinal> converged_sites() {
  const std::vector<std::string> uids = {"s0:0", "s1:0", "s2:0"};
  std::vector<SiteFinal> sites;
  for (int i = 0; i < 3; ++i) {
    sites.push_back({"s" + std::to_string(i), "[0] counter=10012", uids, 3,
                     10012});
  }
  return sites;
}

TEST(AntiEntropyChecks, AcceptConvergedSites) {
  EXPECT_TRUE(check_anti_entropy(converged_sites(), {"s0:0", "s1:0", "s2:0"},
                                 10012)
                  .empty());
}

TEST(AntiEntropyChecks, CorruptedSitesAreRejected) {
  const std::vector<std::string> performed = {"s0:0", "s1:0", "s2:0"};
  std::vector<SiteFinal> fingerprint = converged_sites();
  fingerprint[1].fingerprint = "[0] counter=10011";
  EXPECT_TRUE(mentions(check_anti_entropy(fingerprint, performed, 10012),
                       "committed state differs"));

  std::vector<SiteFinal> dropped = converged_sites();
  dropped[2].history_uids.pop_back();
  dropped[2].stable_length = 2;
  EXPECT_TRUE(mentions(check_anti_entropy(dropped, performed, 10012),
                       "holds action s2:0 0 times"));

  std::vector<SiteFinal> doubled = converged_sites();
  doubled[0].history_uids.push_back("s1:0");
  doubled[0].stable_length = 4;
  EXPECT_TRUE(mentions(check_anti_entropy(doubled, performed, 10012),
                       "holds action s1:0 2 times"));

  std::vector<SiteFinal> unstable = converged_sites();
  unstable[1].stable_length = 2;
  EXPECT_TRUE(mentions(check_anti_entropy(unstable, performed, 10012),
                       "unstable"));

  // A delta altered in the generated workload changes the expected total.
  EXPECT_TRUE(mentions(
      check_anti_entropy(converged_sites(), performed, 10012 + 1), "counter"));
}

}  // namespace
}  // namespace perfbench
