// bulk and live: Fages token/claim logs (workload/fages.hpp), three
// replicas, merged whole (bulk) or streamed concurrently (live).
//
// bulk — one round: (a) a batch greedy Reconciler merge of the large
// problem, (b) local-search merges of many small problems at a fixed move
// budget, (c) the large problem's logs submitted through StreamDaemon one
// whole log after another, as a reconnecting replica uploads its backlog.
//
// live — one round: (1) a saturating pass, every action submitted through
// StreamDaemon in round-robin log order then `finish`; (2) an open-loop
// pass driving StreamReconciler directly at a fixed offered rate: ingest
// the actions that are due, run an epoch, read the new tail of
// `committed()`. Commit latency runs from an action's due time to the end
// of the epoch in which it first appears in `committed()`.
#include <algorithm>
#include <optional>
#include <thread>

#include "core/reconciler.hpp"
#include "cpp/checks.hpp"
#include "cpp/workloads.hpp"
#include "stream/daemon.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using namespace icecube;

/// Tasks per replica of bulk's large problem and of its LS problems. LS
/// cost depends on the sizes of the conflict components a seed happens to
/// produce, so the round merges many small problems to even it out: the
/// median of eight 750-action merges read 83 ms on one seed and 140 ms on
/// another.
constexpr int kBulkTasks = 20000;
constexpr int kLsTasks = 50;
constexpr std::size_t kLsProblems = 48;
/// Local-search move budget; stalls do not stop the walk early.
constexpr std::uint64_t kLsMoves = 1000;
/// Tasks per replica of live's saturating and open-loop problems, and the
/// open-loop offered rate.
constexpr int kLiveTasks = 8000;
constexpr int kOpenLoopTasks = 4000;
constexpr double kOfferedRate = 10000;  // actions per second
/// Open-loop epoch interval: one epoch per tick ingests what fell due.
constexpr double kTickSeconds = 0.1;
/// Arrivals one daemon epoch ingests at most.
constexpr std::size_t kDaemonBatch = 4096;

workload::FagesSpec fages_spec(int tasks, std::uint64_t seed) {
  workload::FagesSpec spec;
  spec.replicas = 3;
  spec.tasks_per_replica = tasks;
  spec.shared_resources = std::max(8, tasks / 25);
  spec.seed = seed;
  return spec;
}

using Arrivals = std::vector<std::pair<LogId, ActionPtr>>;

/// Whole logs one after another (`round_robin` false) or one action of
/// each log in turn, each log kept in order.
Arrivals arrivals_of(const std::vector<Log>& logs, bool round_robin) {
  Arrivals out;
  std::size_t longest = 0;
  for (const Log& log : logs) longest = std::max(longest, log.size());
  if (round_robin) {
    for (std::size_t pos = 0; pos < longest; ++pos) {
      for (std::size_t l = 0; l < logs.size(); ++l) {
        if (pos < logs[l].size()) {
          out.emplace_back(LogId(static_cast<std::uint32_t>(l)),
                           logs[l].ptr(pos));
        }
      }
    }
  } else {
    for (std::size_t l = 0; l < logs.size(); ++l) {
      for (std::size_t pos = 0; pos < logs[l].size(); ++pos) {
        out.emplace_back(LogId(static_cast<std::uint32_t>(l)),
                         logs[l].ptr(pos));
      }
    }
  }
  return out;
}

const char* run_span(SolverKind backend) {
  switch (backend) {
    case SolverKind::kGreedy:
      return "solver.greedy_run";
    case SolverKind::kLocalSearch:
      return "solver.ls_run";
    default:
      return "core.run";
  }
}

/// One batch merge, kept whole for the checks.
struct BatchMerge {
  std::vector<ActionRecord> records;
  Outcome best;
  SearchStats stats;
  double seconds = 0;
};

BatchMerge batch_merge(const workload::Generated& problem,
                       const ReconcilerOptions& options, Tracer& tracer,
                       const char* name) {
  BatchMerge m;
  tracer.next_request();
  std::optional<Reconciler> reconciler;
  ReconcileResult result;
  // Timed: construction plus run(). Copying the result out and tearing
  // the reconciler down are not part of the merge a caller waits for.
  const Clock::time_point t0 = Clock::now();
  {
    Scope merge(tracer, name);
    {
      Scope span(tracer, "core.construct");
      reconciler.emplace(problem.initial, problem.logs, options);
    }
    Scope span(tracer, run_span(options.backend));
    result = reconciler->run();
  }
  m.seconds = seconds_between(t0, Clock::now());
  m.records = reconciler->records();
  if (result.found_any()) m.best = result.best();
  m.stats = result.stats;
  return m;
}

ReconcilerOptions greedy_options() {
  ReconcilerOptions options;
  options.backend = SolverKind::kGreedy;
  return options;
}

ReconcilerOptions ls_options(std::uint64_t seed) {
  ReconcilerOptions options;
  options.backend = SolverKind::kLocalSearch;
  options.local_search.seed = seed;
  options.local_search.max_moves = kLsMoves;
  options.local_search.stall_moves = kLsMoves;
  return options;
}

/// One streamed pass, kept whole for the checks.
struct StreamPass {
  StreamResult result;
  std::vector<ActionRecord> records;
  std::vector<CommitEntry> committed;
  StreamCounters counters;
  ConstraintBuildStats graph;
  std::size_t committed_before_finish = 0;
  double seconds = 0;  ///< first submit/ingest until finish returned
};

/// Counts entries committed in an epoch before the final one (`finish`
/// commits with the last epoch number).
std::size_t committed_before(const std::vector<CommitEntry>& committed,
                             std::uint64_t final_epoch) {
  return static_cast<std::size_t>(
      std::count_if(committed.begin(), committed.end(),
                    [&](const CommitEntry& e) { return e.epoch < final_epoch; }));
}

/// Submits every arrival through a threaded StreamDaemon, then finishes.
StreamPass daemon_pass(const Universe& initial, const Arrivals& arrivals,
                       Tracer& tracer) {
  StreamPass pass;
  StreamOptions options;
  options.backend = SolverKind::kGreedy;
  StreamDaemon daemon(initial, options, kDaemonBatch);
  tracer.next_request();
  const Clock::time_point t0 = Clock::now();
  {
    Scope span(tracer, "stream.submit");
    for (const auto& [log, action] : arrivals) daemon.submit(log, action);
  }
  {
    Scope span(tracer, "stream.finish");
    pass.result = daemon.finish();
  }
  pass.seconds = seconds_between(t0, Clock::now());
  const StreamReconciler& core = daemon.reconciler();
  pass.records = core.graph().records();
  pass.committed = core.committed();
  pass.counters = core.counters();
  pass.graph = core.graph().build_stats();
  pass.committed_before_finish =
      committed_before(pass.committed, pass.counters.epochs);
  return pass;
}

/// Signature a later round must reproduce.
std::pair<std::vector<ActionId>, std::uint64_t> signature(const Outcome& o) {
  return {o.schedule, o.final_state.fingerprint_hash()};
}

void add_core_counters(RoundOutput& out, const SearchStats& s) {
  out.layer["core.schedules_explored"] +=
      static_cast<double>(s.schedules_explored());
  out.layer["core.schedules_completed"] +=
      static_cast<double>(s.schedules_completed);
  out.layer["core.sim_steps"] += static_cast<double>(s.sim_steps);
  out.layer["core.object_clones"] += static_cast<double>(s.object_clones);
  out.layer["core.bytes_cloned"] += static_cast<double>(s.bytes_cloned);
  out.layer["core.order_calls"] +=
      static_cast<double>(s.constraint_order_calls);
  out.layer["core.pairs_evaluated"] +=
      static_cast<double>(s.constraint_pairs_evaluated);
  const double explored = out.layer["core.schedules_explored"];
  out.layer["core.complete_ratio"] =
      explored > 0 ? out.layer["core.schedules_completed"] / explored : 0;
}

void add_stream_counters(RoundOutput& out, const StreamPass& pass) {
  const StreamCounters& c = pass.counters;
  out.layer["stream.fast_appends"] = static_cast<double>(c.fast_appends);
  out.layer["stream.full_resolves"] = static_cast<double>(c.full_resolves);
  out.layer["stream.fast_ratio"] =
      c.ingested > 0 ? static_cast<double>(c.fast_appends) /
                           static_cast<double>(c.ingested)
                     : 0;
  out.layer["incremental.pairs_evaluated"] =
      static_cast<double>(pass.graph.pairs_evaluated);
  out.layer["incremental.target_set_builds"] =
      static_cast<double>(pass.graph.target_set_builds);
}

void add_commit_counters(RoundOutput& out, const StreamPass& pass) {
  out.layer["stream.epochs"] = static_cast<double>(pass.counters.epochs);
  out.layer["stream.max_commit_lag"] =
      static_cast<double>(pass.counters.max_commit_lag);
  out.layer["stream.committed_before_finish"] =
      static_cast<double>(pass.committed_before_finish);
}

std::size_t executed_count(const StreamResult& r) {
  return r.outcome.schedule.size();
}

/// Fages checks of one streamed pass: conservation/capacity/order, the
/// exactness contract against `batch`, and commit accounting.
Problems check_stream_pass(const workload::Generated& problem,
                           std::size_t claim_cells, const StreamPass& pass,
                           const CanonicalMerge& batch, const char* what) {
  Problems out;
  FagesRun run;
  for (ActionId id : pass.result.outcome.schedule) {
    run.executed.push_back(pass.records[id.index()].action.get());
  }
  run.final_state = &pass.result.outcome.final_state;
  Problems found = check_fages(problem.initial, claim_cells, run);
  const Problems same =
      check_same_merge(canonical_stream(pass.records, pass.result), batch);
  found.insert(found.end(), same.begin(), same.end());
  const Problems commits = check_commits(pass.counters.ingested,
                                         pass.committed, pass.result);
  found.insert(found.end(), commits.begin(), commits.end());
  for (const std::string& f : found) out.push_back(std::string(what) + f);
  return out;
}

Problems check_batch(const workload::Generated& problem,
                     std::size_t claim_cells, const BatchMerge& m,
                     const char* what) {
  FagesRun run;
  for (ActionId id : m.best.schedule) {
    run.executed.push_back(m.records[id.index()].action.get());
  }
  run.final_state = &m.best.final_state;
  Problems out;
  for (const std::string& f : check_fages(problem.initial, claim_cells, run)) {
    out.push_back(std::string(what) + f);
  }
  return out;
}

// ---------------------------------------------------------------------------

class Bulk final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tracer) override {
    {
      Scope span(tracer, "workload.generate");
      large_spec_ = fages_spec(kBulkTasks, mix_seed(seed, 1));
      large_ = workload::fages_workload(large_spec_);
      for (std::size_t p = 0; p < kLsProblems; ++p) {
        mids_.push_back(
            workload::fages_workload(fages_spec(kLsTasks, mix_seed(seed, 10 + p))));
      }
    }
    arrivals_ = arrivals_of(large_.logs, /*round_robin=*/false);
    ls_seed_ = mix_seed(seed, 3);
  }

  RoundOutput round(Tracer& tracer) override {
    RoundOutput out;
    BatchMerge greedy =
        batch_merge(large_, greedy_options(), tracer, "bulk.greedy_merge");
    std::vector<BatchMerge> ls;
    double ls_seconds = 0;
    std::size_t ls_executed = 0;
    SearchStats ls_stats;
    for (const workload::Generated& mid : mids_) {
      ls.push_back(
          batch_merge(mid, ls_options(ls_seed_), tracer, "bulk.ls_merge"));
      ls_seconds += ls.back().seconds;
      ls_executed += ls.back().best.schedule.size();
      ls_stats.accumulate(ls.back().stats);
      ls_stats.constraint_order_calls += ls.back().stats.constraint_order_calls;
      ls_stats.constraint_pairs_evaluated +=
          ls.back().stats.constraint_pairs_evaluated;
    }
    StreamPass catchup = daemon_pass(large_.initial, arrivals_, tracer);
    out.attempted = 2 + ls.size();
    // Each whole-log merge is one operation a user waits for.
    out.busy_s.push_back(greedy.seconds);
    for (const BatchMerge& m : ls) out.busy_s.push_back(m.seconds);
    out.busy_s.push_back(catchup.seconds);
    for (double s : out.busy_s) out.latency_ms.push_back(s * 1e3);
    out.actions = static_cast<double>(greedy.records.size() + arrivals_.size());
    for (const BatchMerge& m : ls) {
      out.actions += static_cast<double>(m.records.size());
    }
    out.executed = static_cast<double>(greedy.best.schedule.size() +
                                       ls_executed +
                                       executed_count(catchup.result));
    out.values["bulk_merge_s"] = greedy.seconds;
    out.values["ls_merge_s"] = ls_seconds;
    out.values["catchup_actions_per_s"] =
        static_cast<double>(arrivals_.size()) / catchup.seconds;
    add_core_counters(out, greedy.stats);
    add_core_counters(out, ls_stats);
    out.layer["solver.ls_moves_proposed"] =
        static_cast<double>(ls_stats.moves_proposed);
    out.layer["solver.ls_accept_ratio"] =
        ls_stats.moves_proposed > 0
            ? static_cast<double>(ls_stats.moves_accepted) /
                  static_cast<double>(ls_stats.moves_proposed)
            : 0;
    add_stream_counters(out, catchup);
    add_commit_counters(out, catchup);
    if (!first_greedy_) {
      first_greedy_ = std::move(greedy);
      first_ls_ = std::move(ls);
      first_catchup_ = std::move(catchup);
      return out;
    }
    bool same = signature(greedy.best) == signature(first_greedy_->best) &&
                signature(catchup.result.outcome) ==
                    signature(first_catchup_->result.outcome);
    for (std::size_t p = 0; p < ls.size(); ++p) {
      same = same && signature(ls[p].best) == signature(first_ls_[p].best);
    }
    if (!same) ++rounds_diverged_;
    return out;
  }

  std::vector<std::string> check() override {
    Problems out;
    if (!first_greedy_) return {"no round ran"};
    if (rounds_diverged_ > 0) {
      out.push_back(std::to_string(rounds_diverged_) +
                    " round(s) produced different merges than the first");
    }
    const auto large_claims =
        static_cast<std::size_t>(large_spec_.shared_resources);
    const auto mid_claims =
        static_cast<std::size_t>(fages_spec(kLsTasks, 0).shared_resources);
    auto append = [&out](const Problems& p) {
      out.insert(out.end(), p.begin(), p.end());
    };
    append(check_batch(large_, large_claims, *first_greedy_, "greedy: "));
    Tracer off(Clock::now());
    for (std::size_t p = 0; p < mids_.size(); ++p) {
      append(check_batch(mids_[p], mid_claims, first_ls_[p], "ls: "));
      // The same problem merged by greedy, for the LS-vs-greedy quality
      // check (untimed).
      const BatchMerge mid_greedy =
          batch_merge(mids_[p], greedy_options(), off, "check");
      append(check_ls_not_worse(first_ls_[p].best.cost, mid_greedy.best.cost));
    }
    append(check_stream_pass(
        large_, large_claims, *first_catchup_,
        canonical_batch(first_greedy_->records, first_greedy_->best),
        "catch-up: "));
    return out;
  }

  std::vector<std::string> notes() const override {
    if (!first_greedy_) return {};
    return {std::to_string(arrivals_.size()) + " actions in the large problem, " +
                std::to_string(first_greedy_->best.schedule.size()) +
                " executed by greedy",
            std::to_string(mids_.size()) + " LS problems of " +
                std::to_string(first_ls_.front().records.size()) +
                " actions"};
  }

 private:
  workload::FagesSpec large_spec_;
  workload::Generated large_;
  std::vector<workload::Generated> mids_;
  Arrivals arrivals_;
  std::uint64_t ls_seed_ = 0;
  std::optional<BatchMerge> first_greedy_;
  std::vector<BatchMerge> first_ls_;
  std::optional<StreamPass> first_catchup_;
  std::size_t rounds_diverged_ = 0;
};

// ---------------------------------------------------------------------------

/// The open-loop pass: StreamReconciler driven at kOfferedRate.
struct OpenLoopPass {
  StreamPass pass;
  std::vector<double> commit_ms;  ///< per action, due time to commit
  std::vector<double> late_ms;    ///< per tick, how late its epoch began
};

OpenLoopPass open_loop_pass(const Universe& initial, const Arrivals& arrivals,
                            Tracer& tracer) {
  OpenLoopPass o;
  StreamOptions options;
  options.backend = SolverKind::kGreedy;
  StreamReconciler core(initial, options);
  const std::size_t n = arrivals.size();
  std::vector<Clock::time_point> due_of_id(n);
  o.commit_ms.reserve(n);
  o.late_ms.reserve(n);
  const Clock::time_point start = Clock::now();
  const auto at = [&](double seconds) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  };
  // Action k is due at k / rate. Each epoch ingests the actions that fell
  // due during one tick, at the tick's end, so the epochs' contents do not
  // depend on how fast the loop runs; a slow epoch only makes the next
  // ones late.
  std::size_t next = 0;
  std::size_t seen_commits = 0;
  for (std::size_t tick = 1; next < n; ++tick) {
    const double tick_end_s = static_cast<double>(tick) * kTickSeconds;
    const Clock::time_point tick_end = at(tick_end_s);
    std::this_thread::sleep_until(tick_end);
    const Clock::time_point now = Clock::now();
    o.late_ms.push_back(seconds_between(tick_end, now) * 1e3);
    tracer.next_request();
    {
      Scope span(tracer, "stream.ingest");
      for (; next < n && static_cast<double>(next) / kOfferedRate < tick_end_s;
           ++next) {
        const ActionId id =
            core.ingest(arrivals[next].first, arrivals[next].second);
        due_of_id[id.index()] =
            at(static_cast<double>(next) / kOfferedRate);
      }
    }
    {
      Scope span(tracer, "stream.epoch");
      core.run_epoch();
    }
    const Clock::time_point epoch_end = Clock::now();
    const std::vector<CommitEntry>& committed = core.committed();
    for (; seen_commits < committed.size(); ++seen_commits) {
      o.commit_ms.push_back(
          seconds_between(due_of_id[committed[seen_commits].id.index()],
                          epoch_end) *
          1e3);
    }
  }
  tracer.next_request();
  {
    Scope span(tracer, "stream.finish");
    o.pass.result = core.finish();
  }
  const Clock::time_point finish_end = Clock::now();
  const std::vector<CommitEntry>& committed = core.committed();
  o.pass.committed_before_finish = seen_commits;
  for (; seen_commits < committed.size(); ++seen_commits) {
    o.commit_ms.push_back(
        seconds_between(due_of_id[committed[seen_commits].id.index()],
                        finish_end) *
        1e3);
  }
  o.pass.seconds = seconds_between(start, finish_end);
  o.pass.records = core.graph().records();
  o.pass.committed = committed;
  o.pass.counters = core.counters();
  o.pass.graph = core.graph().build_stats();
  return o;
}

/// One live problem: its logs interleaved round-robin.
struct LiveProblem {
  workload::FagesSpec spec;
  workload::Generated problem;
  Arrivals arrivals;

  LiveProblem(int tasks, std::uint64_t seed)
      : spec(fages_spec(tasks, seed)),
        problem(workload::fages_workload(spec)),
        arrivals(arrivals_of(problem.logs, /*round_robin=*/true)) {}

  /// Checks `pass` against a batch greedy merge of the same logs.
  [[nodiscard]] Problems check(const StreamPass& pass, const char* what) const {
    Tracer off(Clock::now());
    const BatchMerge batch = batch_merge(problem, greedy_options(), off, "check");
    return check_stream_pass(problem,
                             static_cast<std::size_t>(spec.shared_resources),
                             pass, canonical_batch(batch.records, batch.best),
                             what);
  }
};

class Live final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tracer) override {
    Scope span(tracer, "workload.generate");
    saturating_.emplace(kLiveTasks, mix_seed(seed, 4));
    open_loop_.emplace(kOpenLoopTasks, mix_seed(seed, 5));
  }

  RoundOutput round(Tracer& tracer) override {
    RoundOutput out;
    StreamPass saturating =
        daemon_pass(saturating_->problem.initial, saturating_->arrivals, tracer);
    OpenLoopPass open = open_loop_pass(open_loop_->problem.initial,
                                       open_loop_->arrivals, tracer);
    out.attempted = 2;
    // Throughput is the saturating pass's; the open loop is paced by its
    // offered rate, and a user there waits for each action to commit.
    out.actions = static_cast<double>(saturating_->arrivals.size());
    out.busy_s.push_back(saturating.seconds);
    out.executed = static_cast<double>(executed_count(saturating.result) +
                                       executed_count(open.pass.result));
    out.latency_ms = open.commit_ms;
    out.values["live_actions_per_s"] = out.actions / saturating.seconds;
    add_stream_counters(out, saturating);
    add_commit_counters(out, open.pass);
    out.layer["stream.generator_late_p99_ms"] = quantile(open.late_ms, 0.99);
    max_late_ms_ = std::max(max_late_ms_, quantile(open.late_ms, 1.0));
    if (!first_saturating_) {
      first_saturating_ = std::move(saturating);
      first_open_ = std::move(open.pass);
    } else if (signature(saturating.result.outcome) !=
                   signature(first_saturating_->result.outcome) ||
               signature(open.pass.result.outcome) !=
                   signature(first_open_->result.outcome)) {
      ++rounds_diverged_;
    }
    return out;
  }

  std::vector<std::string> check() override {
    Problems out;
    if (!first_saturating_) return {"no round ran"};
    if (rounds_diverged_ > 0) {
      out.push_back(std::to_string(rounds_diverged_) +
                    " round(s) produced different merges than the first");
    }
    for (const Problems& p :
         {saturating_->check(*first_saturating_, "saturating: "),
          open_loop_->check(*first_open_, "open-loop: ")}) {
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  std::vector<std::string> notes() const override {
    if (!first_open_) return {};
    return {std::to_string(saturating_->arrivals.size()) +
                " actions in the saturating pass, " +
                std::to_string(open_loop_->arrivals.size()) +
                " in the open loop offered at " +
                std::to_string(static_cast<int>(kOfferedRate)) + " actions/s",
            "generator ran at most " + std::to_string(max_late_ms_) +
                " ms late; " +
                std::to_string(first_open_->committed_before_finish) +
                " action(s) committed before finish, " +
                std::to_string(first_open_->counters.commit_violations) +
                " commit violation(s)"};
  }

 private:
  std::optional<LiveProblem> saturating_;
  std::optional<LiveProblem> open_loop_;
  std::optional<StreamPass> first_saturating_;
  std::optional<StreamPass> first_open_;
  double max_late_ms_ = 0;
  std::size_t rounds_diverged_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_bulk() { return std::make_unique<Bulk>(); }
std::unique_ptr<Workload> make_live() { return std::make_unique<Live>(); }

}  // namespace perfbench
