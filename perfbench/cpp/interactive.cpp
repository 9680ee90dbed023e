// interactive: back-to-back small merges, one client in a closed loop.
//
// A pool of small problems of the kinds the paper evaluates — calendar,
// counter, file-system and text logs from workload/generators, and jigsaw
// games — each merged by `Reconciler` on the default DFS backend with its
// default 100000-schedule cap. One round merges every problem of the pool
// once, each merge starting when the previous one returned.
//
// Unconstrained logs make DFS enumerate permutations, so sizes are small
// (6 to 14 actions) to keep a merge interactive: at 9 to 15 actions
// counter and file-system merges run into the schedule cap and take
// 100-500 ms each.
#include <map>
#include <memory>

#include "core/reconciler.hpp"
#include "cpp/checks.hpp"
#include "cpp/workloads.hpp"
#include "jigsaw/experiment.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using namespace icecube;

constexpr std::size_t kPoolSize = 2000;

struct SmallProblem {
  const char* kind = "";
  Universe initial;
  std::vector<Log> logs;
  std::unique_ptr<Policy> policy;  ///< jigsaw ranks by correct pieces
  std::size_t actions = 0;
};

/// What a merge returned, reduced to what later rounds must reproduce.
struct Signature {
  std::vector<ActionId> schedule;
  std::uint64_t state = 0;
  friend bool operator==(const Signature&, const Signature&) = default;
};

SmallProblem generate(std::size_t index, std::uint64_t seed) {
  SmallProblem p;
  const std::uint64_t s = mix_seed(seed, index);
  workload::Generated g;
  switch (index % 5) {
    case 0: {
      p.kind = "calendar";
      workload::CalendarSpec spec;
      spec.users = 3;
      spec.actions_per_user = 2;
      spec.seed = s;
      g = workload::calendar_workload(spec);
      break;
    }
    case 1: {
      p.kind = "counter";
      workload::CounterSpec spec;
      spec.replicas = 3;
      spec.actions_per_replica = 2;
      spec.seed = s;
      g = workload::counter_workload(spec);
      break;
    }
    case 2: {
      p.kind = "fs";
      workload::FsSpec spec;
      spec.replicas = 2;
      spec.actions_per_replica = 3;
      spec.seed = s;
      g = workload::fs_workload(spec);
      break;
    }
    case 3: {
      p.kind = "text";
      workload::TextSpec spec;
      spec.replicas = 2;
      spec.actions_per_replica = 5;
      spec.seed = s;
      g = workload::text_workload(spec);
      break;
    }
    default: {
      p.kind = "jigsaw";
      using K = jigsaw::PlayerSpec::Kind;
      jigsaw::Problem j = jigsaw::make_problem(
          4, 4, jigsaw::Board::OrderCase::kSemantic,
          {{K::kU1, 6, 0}, {K::kU3, 8, s}});
      g.initial = std::move(j.initial);
      g.logs = std::move(j.logs);
      p.policy = std::make_unique<jigsaw::JigsawPolicy>(j.board_id);
      break;
    }
  }
  p.initial = std::move(g.initial);
  p.logs = std::move(g.logs);
  for (const Log& log : p.logs) p.actions += log.size();
  return p;
}

ReconcilerOptions merge_options() {
  ReconcilerOptions options;  // DFS, H=Safe, 100000-schedule cap
  // Failing actions are skipped rather than abandoning the branch, so the
  // chosen outcome accounts for every action.
  options.failure_mode = FailureMode::kSkipAction;
  return options;
}

/// A first-round merge, kept whole for the checks.
struct Kept {
  std::unique_ptr<Reconciler> reconciler;
  ReconcileResult result;
};

class Interactive final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tracer) override {
    Scope span(tracer, "workload.generate");
    pool_.reserve(kPoolSize);
    for (std::size_t i = 0; i < kPoolSize; ++i) {
      pool_.push_back(generate(i, seed));
    }
  }

  RoundOutput round(Tracer& tracer) override {
    RoundOutput out;
    const ReconcilerOptions options = merge_options();
    const bool keep = kept_.empty();
    std::vector<double>& latency = out.latency_ms;
    latency.reserve(pool_.size());
    SearchStats sum;
    for (const SmallProblem& p : pool_) {
      tracer.next_request();
      std::unique_ptr<Reconciler> reconciler;
      ReconcileResult result;
      const Clock::time_point t0 = Clock::now();
      {
        Scope merge(tracer, "interactive.merge");
        {
          Scope span(tracer, "core.construct");
          reconciler = std::make_unique<Reconciler>(p.initial, p.logs,
                                                    options, p.policy.get());
        }
        Scope span(tracer, "core.run");
        result = reconciler->run();
      }
      const double seconds = seconds_between(t0, Clock::now());
      latency.push_back(seconds * 1e3);
      out.actions += static_cast<double>(p.actions);
      out.busy_s.push_back(seconds);
      kind_ms_[p.kind].push_back(latency.back());
      ++out.attempted;
      if (!result.found_any()) {
        ++out.failed;
        if (keep) signatures_.emplace_back();
      } else {
        const Outcome& best = result.best();
        out.executed += static_cast<double>(best.schedule.size());
        const Signature sig{best.schedule, best.final_state.fingerprint_hash()};
        if (keep) {
          signatures_.push_back(sig);
        } else if (!(sig == signatures_[latency.size() - 1])) {
          ++diverged_;
        }
      }
      sum.accumulate(result.stats);
      sum.constraint_order_calls += result.stats.constraint_order_calls;
      sum.constraint_pairs_evaluated += result.stats.constraint_pairs_evaluated;
      if (keep) kept_.push_back({std::move(reconciler), std::move(result)});
    }
    const auto explored = static_cast<double>(sum.schedules_explored());
    out.layer["core.schedules_explored"] = explored;
    out.layer["core.schedules_completed"] =
        static_cast<double>(sum.schedules_completed);
    out.layer["core.complete_ratio"] =
        explored > 0 ? static_cast<double>(sum.schedules_completed) / explored
                     : 0;
    out.layer["core.sim_steps"] = static_cast<double>(sum.sim_steps);
    out.layer["core.object_clones"] = static_cast<double>(sum.object_clones);
    out.layer["core.bytes_cloned"] = static_cast<double>(sum.bytes_cloned);
    out.layer["core.order_calls"] =
        static_cast<double>(sum.constraint_order_calls);
    out.layer["core.pairs_evaluated"] =
        static_cast<double>(sum.constraint_pairs_evaluated);
    return out;
  }

  std::vector<std::string> check() override {
    Problems out;
    if (diverged_ > 0) {
      out.push_back(std::to_string(diverged_) +
                    " merge(s) chose a different outcome than in round one");
    }
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const SmallProblem& p = pool_[i];
      const ReconcileResult& result = kept_[i].result;
      if (!result.found_any()) continue;  // counted as failed
      const Reconciler& reconciler = *kept_[i].reconciler;
      const Outcome& best = result.best();
      Problems found = check_replay(p.initial, reconciler.records(), best);
      const Problems part = check_partition(p.actions, best);
      found.insert(found.end(), part.begin(), part.end());
      const Relations& rel = reconciler.relations();
      const Problems dep = check_dependences(
          p.actions,
          [&rel](std::size_t a, std::size_t b) {
            return rel.depends_raw(ActionId(static_cast<std::uint32_t>(a)),
                                   ActionId(static_cast<std::uint32_t>(b)));
          },
          best);
      found.insert(found.end(), dep.begin(), dep.end());
      for (const std::string& f : found) {
        out.push_back(std::string(p.kind) + " problem " + std::to_string(i) +
                      ": " + f);
      }
    }
    return out;
  }

  std::vector<std::string> notes() const override {
    std::size_t actions = 0;
    for (const SmallProblem& p : pool_) actions += p.actions;
    std::vector<std::string> out = {std::to_string(pool_.size()) +
                                    " problems per round, " +
                                    std::to_string(actions) + " actions"};
    for (const auto& [kind, ms] : kind_ms_) {
      out.push_back(kind + ": " + std::to_string(ms.size()) +
                    " merges, p50 " + std::to_string(quantile(ms, 0.5)) +
                    " ms, p99 " + std::to_string(quantile(ms, 0.99)) + " ms");
    }
    return out;
  }

 private:
  std::vector<SmallProblem> pool_;
  std::vector<Kept> kept_;            ///< round one, per problem
  std::vector<Signature> signatures_;  ///< round one, per problem
  std::size_t diverged_ = 0;
  std::map<std::string, std::vector<double>> kind_ms_;  ///< all rounds
};

}  // namespace

std::unique_ptr<Workload> make_interactive() {
  return std::make_unique<Interactive>();
}

}  // namespace perfbench
