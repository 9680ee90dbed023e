// anti-entropy: GossipNode + CommitEngine sites on SimNet, driven by the
// benchmark's own event loop (no per-event invariant checker).
//
// Each scenario: kSites sites share a genesis counter; each performs
// kActionsPerSite counter updates, one per gossip tick, and gossips its
// log and its commitment knowledge to a seeded partner every tick.
// Messages are lost, duplicated and delayed until the fault horizon; one
// scheduled partition splits the sites into two halves and then heals
// (disconnected operation followed by reconnection). A scenario ends when
// every site has converged and every action is stable everywhere. One
// round runs kScenarios scenarios, each from its own sub-seed.
//
// An operation is one simulated event as its site handles it: a site
// waits that long on every message or timer, tens of thousands of times
// per round. Throughput is actions performed over the time the sites took
// to handle every event until convergence.
#include <algorithm>
#include <memory>
#include <optional>

#include "cpp/checks.hpp"
#include "cpp/workloads.hpp"
#include "objects/counter.hpp"
#include "replica/commit.hpp"
#include "replica/gossip.hpp"
#include "serialize/commit_codec.hpp"
#include "simnet/simnet.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace icecube;

constexpr std::size_t kScenarios = 48;
constexpr std::size_t kSites = 10;
constexpr std::size_t kActionsPerSite = 1;
constexpr std::size_t kGossipInterval = 4;
constexpr std::size_t kFaultHorizon = 200;
constexpr std::size_t kPartitionAt = 10;
constexpr std::size_t kHealAt = 60;
constexpr std::size_t kStepBudget = 200000;
constexpr std::int64_t kGenesis = 10000;
/// Schedule budget of each pairwise merge. Merges run once per exchange,
/// so, as GossipOptions advises, the budget is kept modest.
constexpr std::uint64_t kMergeSchedules = 1000;

FaultSpec scenario_faults() {
  FaultSpec spec;
  spec.lose = 0.05;
  spec.duplicate = 0.05;
  spec.delay_max = 3;
  return spec;
}

/// The inputs of one scenario, fixed at set-up.
struct Scenario {
  std::uint64_t seed = 0;
  /// Per site, the signed counter deltas it performs, in order.
  std::vector<std::vector<std::int64_t>> deltas;
  std::int64_t expected = kGenesis;
};

/// What one run of a scenario produced.
struct ScenarioRun {
  bool converged = false;
  std::size_t failed_performs = 0;
  double seconds = 0;
  std::size_t ticks = 0;
  std::uint64_t gossip_bytes = 0;
  std::uint64_t commit_bytes = 0;
  std::size_t receipts = 0;
  std::size_t adopted = 0;
  GossipStats gossip;
  CommitStats commit;
  SimCounters net;
  std::vector<std::string> performed_uids;
  std::vector<SiteFinal> sites;
  /// Per simulated event, the time its site took to handle it: the step,
  /// the receive or timer work, and the sends it caused.
  std::vector<double> event_ms;
};

std::string site_name(std::size_t i) { return "s" + std::to_string(i); }

/// One scenario's sites, engines and network, ready to run.
struct World {
  explicit World(const Scenario& sc) : net(sc.seed, scenario_faults()) {
    Universe genesis;
    genesis.add(std::make_unique<Counter>(kGenesis));
    GossipOptions gossip_options;
    gossip_options.reconcile.limits.max_schedules = kMergeSchedules;
    nodes.reserve(kSites);
    for (std::size_t i = 0; i < kSites; ++i) {
      names.push_back(site_name(i));
      nodes.emplace_back(names[i], genesis, gossip_options);
    }
    // Engines hold references into `nodes`, which no longer reallocates.
    engines.reserve(kSites);
    CommitOptions commit_options;
    commit_options.auth_seed = sc.seed;
    for (std::size_t i = 0; i < kSites; ++i) {
      engines.emplace_back(nodes[i], kSites, commit_options);
    }
    net.set_fault_horizon(kFaultHorizon);
    net.set_trace_retention(false);
    for (const std::string& name : names) net.add_site(name);
    for (std::size_t i = 0; i < kSites; ++i) {
      net.schedule_timer(names[i], 1 + i);
    }
    for (std::size_t a = 0; a < kSites / 2; ++a) {
      for (std::size_t b = kSites / 2; b < kSites; ++b) {
        net.schedule_partition(names[a], names[b], kPartitionAt, kHealAt);
      }
    }
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::vector<std::string> names;
  std::vector<GossipNode> nodes;
  std::vector<CommitEngine> engines;
  SimNet net;
};

ScenarioRun run_scenario(const Scenario& sc, World& world, Tracer& tracer) {
  ScenarioRun run;
  const std::vector<std::string>& names = world.names;
  std::vector<GossipNode>& nodes = world.nodes;
  std::vector<CommitEngine>& engines = world.engines;
  SimNet& net = world.net;

  std::vector<std::size_t> next_action(kSites, 0);
  std::size_t to_perform = 0;
  for (const auto& d : sc.deltas) to_perform += d.size();

  const auto send = [&](std::size_t from, const std::string& to,
                        std::string payload, std::uint64_t& bytes) {
    bytes += payload.size();
    Scope span(tracer, "simnet.send");
    (void)net.send(names[from], to, std::move(payload));
  };
  const auto converged = [&] {
    if (to_perform > 0) return false;
    for (std::size_t i = 0; i < kSites; ++i) {
      if (!nodes[i].pending().empty() ||
          engines[i].stable_uids().size() != nodes[i].history().size()) {
        return false;
      }
    }
    return commit_converged(engines) && gossip_converged(nodes);
  };

  const Clock::time_point t0 = Clock::now();
  for (std::size_t steps = 0; steps < kStepBudget; ++steps) {
    tracer.next_request();
    const Clock::time_point event_start = Clock::now();
    std::optional<SimEvent> event;
    {
      Scope span(tracer, "simnet.step");
      event = net.step();
    }
    if (!event) break;
    const auto i = static_cast<std::size_t>(std::stoul(event->site.substr(1)));
    GossipNode& node = nodes[i];
    if (event->kind == SimEvent::Kind::kTimer) {
      if (net.is_up(event->site)) {
        if (next_action[i] < sc.deltas[i].size()) {
          const std::int64_t d = sc.deltas[i][next_action[i]++];
          --to_perform;
          ActionPtr action =
              d >= 0 ? ActionPtr(std::make_shared<IncrementAction>(
                           ObjectId(0), d))
                     : ActionPtr(std::make_shared<DecrementAction>(ObjectId(0),
                                                                   -d));
          if (node.perform(std::move(action))) {
            run.performed_uids.push_back(node.pending_uids().back());
          } else {
            ++run.failed_performs;
          }
        }
        Rng partner_rng(mix_seed(sc.seed, (i << 32) ^ net.now()));
        std::size_t partner = partner_rng.below(kSites - 1);
        if (partner >= i) ++partner;
        std::string gossip;
        {
          Scope span(tracer, "replica.gossip_message");
          gossip = node.make_message(&net.faults(), net.now());
        }
        send(i, names[partner], std::move(gossip), run.gossip_bytes);
        {
          Scope span(tracer, "replica.commit_tick");
          (void)engines[i].tick();
        }
        std::string frame;
        {
          Scope span(tracer, "replica.commit_message");
          frame = engines[i].make_message(&net.faults(), net.now());
        }
        send(i, names[partner], std::move(frame), run.commit_bytes);
      }
      net.schedule_timer(event->site, net.now() + kGossipInterval);
    } else if (is_commit_frame(event->payload)) {
      CommitReceipt receipt;
      {
        Scope span(tracer, "replica.commit_receive");
        receipt = engines[i].receive(event->payload);
      }
      if (receipt.reply_advised && net.is_up(event->from)) {
        std::string frame;
        {
          Scope span(tracer, "replica.commit_message");
          frame = engines[i].make_message(&net.faults(), net.now());
        }
        send(i, event->from, std::move(frame), run.commit_bytes);
      }
    } else {
      GossipReceipt receipt;
      {
        Scope span(tracer, "replica.gossip_receive");
        receipt = node.receive(event->payload);
      }
      ++run.receipts;
      if (receipt.adopted()) ++run.adopted;
      if (receipt.reply_advised() && net.is_up(event->from)) {
        std::string gossip;
        {
          Scope span(tracer, "replica.gossip_message");
          gossip = node.make_message(&net.faults(), net.now());
        }
        send(i, event->from, std::move(gossip), run.gossip_bytes);
      }
    }
    run.event_ms.push_back(seconds_between(event_start, Clock::now()) * 1e3);
    if (converged()) {
      run.converged = true;
      break;
    }
  }
  run.seconds = seconds_between(t0, Clock::now());
  run.ticks = net.now();
  run.net = net.counters();
  for (std::size_t i = 0; i < kSites; ++i) {
    const GossipStats& g = nodes[i].stats();
    run.gossip.merges += g.merges;
    run.gossip.transfers += g.transfers;
    run.gossip.demotions += g.demotions;
    const CommitStats& c = engines[i].stats();
    run.commit.decisions += c.decisions;
    run.commit.runoff_votes += c.runoff_votes;
    run.commit.rebases += c.rebases;
    run.sites.push_back({names[i], nodes[i].committed_fingerprint(),
                         nodes[i].history_uids(), nodes[i].stable_length(),
                         nodes[i].committed().as<Counter>(ObjectId(0)).value()});
  }
  return run;
}

std::vector<Scenario> generate_scenarios(std::uint64_t seed) {
  std::vector<Scenario> out;
  for (std::size_t k = 0; k < kScenarios; ++k) {
    Scenario sc;
    sc.seed = mix_seed(seed, 100 + k);
    Rng rng(mix_seed(sc.seed, 1));
    sc.deltas.resize(kSites);
    for (auto& site : sc.deltas) {
      for (std::size_t a = 0; a < kActionsPerSite; ++a) {
        const std::int64_t d =
            rng.below(4) == 0 ? -static_cast<std::int64_t>(1 + rng.below(3))
                              : static_cast<std::int64_t>(1 + rng.below(5));
        site.push_back(d);
        sc.expected += d;
      }
    }
    out.push_back(std::move(sc));
  }
  return out;
}

class AntiEntropy final : public Workload {
 public:
  void setup(std::uint64_t seed, Tracer& tracer) override {
    {
      Scope span(tracer, "workload.generate");
      scenarios_ = generate_scenarios(seed);
    }
    // The first round's worlds are built here; later rounds build their
    // own before their timed part.
    for (const Scenario& sc : scenarios_) {
      worlds_.push_back(std::make_unique<World>(sc));
    }
  }

  RoundOutput round(Tracer& tracer) override {
    RoundOutput out;
    std::vector<ScenarioRun> runs;
    double seconds = 0;
    double bytes = 0;
    double ticks = 0;
    for (std::size_t k = 0; k < scenarios_.size(); ++k) {
      const Scenario& sc = scenarios_[k];
      std::unique_ptr<World> world = std::move(worlds_[k]);
      if (!world) world = std::make_unique<World>(sc);
      ScenarioRun run = run_scenario(sc, *world, tracer);
      ++out.attempted;
      if (!run.converged || run.failed_performs > 0) ++out.failed;
      seconds += run.seconds;
      bytes += static_cast<double>(run.gossip_bytes + run.commit_bytes);
      ticks += static_cast<double>(run.ticks);
      for (double ms : run.event_ms) {
        out.latency_ms.push_back(ms);
        out.busy_s.push_back(ms * 1e-3);
      }
      std::vector<double>().swap(run.event_ms);
      out.actions += static_cast<double>(run.performed_uids.size());
      out.executed += static_cast<double>(run.sites.front().stable_length);
      auto& l = out.layer;
      l["replica.gossip_bytes"] += static_cast<double>(run.gossip_bytes);
      l["replica.commit_bytes"] += static_cast<double>(run.commit_bytes);
      l["replica.merges"] += static_cast<double>(run.gossip.merges);
      l["replica.transfers"] += static_cast<double>(run.gossip.transfers);
      l["replica.demotions"] += static_cast<double>(run.gossip.demotions);
      l["replica.receipts"] += static_cast<double>(run.receipts);
      l["replica.adopted"] += static_cast<double>(run.adopted);
      l["commit.decisions"] += static_cast<double>(run.commit.decisions);
      l["commit.runoff_votes"] += static_cast<double>(run.commit.runoff_votes);
      l["commit.rebases"] += static_cast<double>(run.commit.rebases);
      l["simnet.sent"] += static_cast<double>(run.net.sent);
      l["simnet.delivered"] += static_cast<double>(run.net.delivered);
      l["simnet.lost"] += static_cast<double>(run.net.lost);
      runs.push_back(std::move(run));
    }
    const double receipts = out.layer["replica.receipts"];
    out.layer["replica.useful_exchange_ratio"] =
        receipts > 0 ? out.layer["replica.adopted"] / receipts : 0;
    const auto n = static_cast<double>(scenarios_.size());
    out.values["converge_s"] = seconds / n;
    out.values["wire_bytes"] = bytes / n;
    out.values["stable_ticks"] = ticks / n;
    out.layer["simnet.stable_ticks"] = ticks;
    if (first_.empty()) {
      first_ = std::move(runs);
    } else {
      for (std::size_t k = 0; k < runs.size(); ++k) {
        if (runs[k].ticks != first_[k].ticks ||
            runs[k].gossip_bytes != first_[k].gossip_bytes ||
            runs[k].commit_bytes != first_[k].commit_bytes ||
            runs[k].sites.front().fingerprint !=
                first_[k].sites.front().fingerprint) {
          ++rounds_diverged_;
          break;
        }
      }
    }
    return out;
  }

  std::vector<std::string> check() override {
    Problems out;
    if (rounds_diverged_ > 0) {
      out.push_back(std::to_string(rounds_diverged_) +
                    " round(s) ran differently from the first");
    }
    for (std::size_t k = 0; k < first_.size(); ++k) {
      const std::string where = "scenario " + std::to_string(k) + ": ";
      // A scenario that did not converge is counted as a failed operation;
      // the checks speak of the ones that did.
      if (!first_[k].converged) continue;
      for (const std::string& f :
           check_anti_entropy(first_[k].sites, first_[k].performed_uids,
                              scenarios_[k].expected)) {
        out.push_back(where + f);
      }
    }
    return out;
  }

  std::vector<std::string> notes() const override {
    return {std::to_string(kScenarios) + " scenarios per round, " +
            std::to_string(kSites) + " sites x " +
            std::to_string(kActionsPerSite) + " actions each"};
  }

 private:
  std::vector<Scenario> scenarios_;
  std::vector<std::unique_ptr<World>> worlds_;  ///< built, not yet run
  std::vector<ScenarioRun> first_;
  std::size_t rounds_diverged_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_anti_entropy() {
  return std::make_unique<AntiEntropy>();
}

}  // namespace perfbench
