#include "simnet/chaos.hpp"

#include <algorithm>

#include "util/format.hpp"
#include "util/rng.hpp"

namespace icecube {

ChaosReport run_chaos(const ChaosSpec& spec) {
  // Gossip needs a partner; the interval must advance the clock.
  const std::size_t n = std::max<std::size_t>(spec.sites, 2);
  const std::size_t interval = std::max<std::size_t>(spec.gossip_interval, 1);

  ChaosReport report;
  report.seed = spec.seed;
  report.sites = n;

  GossipOptions gossip_options;
  gossip_options.reconcile = spec.reconcile;
  SiteGroup group(spec.seed, spec.faults,
                  std::vector<std::size_t>(n, spec.actions_per_site),
                  gossip_options, spec.commitment, spec.deep_replay,
                  spec.capture);
  SimNet& net = group.net();
  net.set_fault_horizon(spec.fault_horizon);
  net.set_partition_window(spec.partition_window);
  net.set_trace_retention(spec.keep_trace);
  // Stagger the first ticks so sites never move in lockstep.
  for (std::size_t i = 0; i < n; ++i) net.schedule_timer(group.name(i), 1 + i);

  // Convergence is only demanded once every disruption is over.
  std::size_t quiet_time = spec.fault_horizon;

  for (const ChaosPartition& p : spec.partitions) {
    if (!net.has_site(p.a) || !net.has_site(p.b) || p.heal_at <= p.at) {
      continue;
    }
    net.schedule_partition(p.a, p.b, p.at, p.heal_at);
    quiet_time = std::max(quiet_time, p.heal_at);
  }
  for (const ChaosCrash& c : spec.crashes) {
    if (!net.has_site(c.site) || c.restart_at <= c.at) continue;
    net.schedule_crash(c.site, c.at);
    net.schedule_restart(c.site, c.restart_at);
    quiet_time = std::max(quiet_time, c.restart_at);
  }

  // Random crash/recovery cycles drawn from FaultSpec::site_down, one
  // decision per crash window per site, always with a restart.
  const std::size_t crash_len = std::max<std::size_t>(spec.crash_length, 1);
  const std::size_t crash_window = crash_len * 2;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t w = 0; w * crash_window < spec.fault_horizon; ++w) {
      if (!net.faults().site_down(group.name(i), w)) continue;
      const std::size_t at = w * crash_window + 1;
      net.schedule_crash(group.name(i), at);
      net.schedule_restart(group.name(i), at + crash_len);
      quiet_time = std::max(quiet_time, at + crash_len);
    }
  }

  while (report.steps < spec.step_budget) {
    auto event = net.step();
    if (!event) break;
    ++report.steps;
    const std::size_t i = group.index(event->site);

    if (event->kind == SimEvent::Kind::kTimer) {
      if (net.is_up(event->site)) {
        Rng partner_rng(decision_seed(spec.seed, 0xB7, i, net.now()));
        std::size_t partner = partner_rng.below(n - 1);
        if (partner >= i) ++partner;
        // A drop-vote fault withholds this slot's commitment frame.
        const bool send_commit_frame =
            spec.commitment &&
            !net.faults().vote_dropped(event->site, net.now());
        if (group.tick(i, partner, send_commit_frame, &net.faults())) {
          ++report.total_actions;
        }
      }
      net.schedule_timer(event->site, net.now() + interval);
    } else {
      group.deliver(*event, &net.faults());
    }
    group.observe(i);

    if (net.now() >= quiet_time && group.converged()) {
      report.converged = true;
      report.converged_at = net.now();
      break;
    }
  }

  report.final_time = net.now();
  if (!report.converged) group.check_converged();
  report.violations = group.violations();
  report.observations = group.observations();
  for (const GossipNode& node : group.nodes()) {
    report.totals.performs += node.stats().performs;
    report.totals.merges += node.stats().merges;
    report.totals.merge_noops += node.stats().merge_noops;
    report.totals.merge_aborted += node.stats().merge_aborted;
    report.totals.transfers += node.stats().transfers;
    report.totals.demotions += node.stats().demotions;
    report.totals.quarantines += node.stats().quarantines;
    report.totals.stale_heard += node.stats().stale_heard;
    report.totals.stable_conflicts += node.stats().stable_conflicts;
    report.max_epoch = std::max(report.max_epoch, node.epoch());
  }
  for (const CommitEngine& engine : group.engines()) {
    const CommitStats& s = engine.stats();
    report.commit_totals.proposals_made += s.proposals_made;
    report.commit_totals.votes_cast += s.votes_cast;
    report.commit_totals.runoff_votes += s.runoff_votes;
    report.commit_totals.decisions += s.decisions;
    report.commit_totals.fast_forwards += s.fast_forwards;
    report.commit_totals.rebases += s.rebases;
    report.commit_totals.rebase_failures += s.rebase_failures;
    report.commit_totals.frames_received += s.frames_received;
    report.commit_totals.quarantines += s.quarantines;
    report.commit_totals.records_learned += s.records_learned;
    report.stable_height =
        std::max(report.stable_height, engine.stable_height());
    report.stable_actions =
        std::max(report.stable_actions, engine.stable_uids().size());
  }
  if (report.converged) {
    report.final_fingerprint = group.nodes().front().committed_fingerprint();
  }
  report.net = net.counters();
  report.injected_faults = net.faults().injected().size();
  report.trace_crc = net.trace_crc();
  if (spec.keep_trace) report.trace = net.trace();
  if (spec.capture != nullptr) {
    for (const Violation& v : report.violations) {
      spec.capture->record(
          {CaptureRecordKind::kViolation, v.time, v.message()});
    }
    spec.capture->record({CaptureRecordKind::kSummary, report.final_time,
                          chaos_capture_summary(report)});
  }
  return report;
}

std::string chaos_capture_summary(const ChaosReport& report) {
  std::string out;
  out += "crc " + hex32(report.trace_crc) + "\n";
  out += "steps " + std::to_string(report.steps) + "\n";
  out += "converged " + std::string(report.converged ? "1" : "0") + "\n";
  out += "converged-at " + std::to_string(report.converged_at) + "\n";
  out += "final-time " + std::to_string(report.final_time) + "\n";
  out += "actions " + std::to_string(report.total_actions) + "\n";
  out += "violations " + std::to_string(report.violations.size()) + "\n";
  // Raw and last: the fingerprint may contain anything, including
  // newlines; byte comparison is all a replay needs.
  out += "fingerprint " + report.final_fingerprint;
  return out;
}

std::string ChaosReport::to_json() const {
  std::string out = "{";
  const auto field = [&out](const std::string& key, const std::string& value,
                            bool quote) {
    if (out.size() > 1) out += ",";
    out += "\"" + key + "\":";
    if (quote) {
      out += "\"" + value + "\"";
    } else {
      out += value;
    }
  };
  field("seed", std::to_string(seed), false);
  field("sites", std::to_string(sites), false);
  field("converged", converged ? "true" : "false", false);
  field("converged_at", std::to_string(converged_at), false);
  field("steps", std::to_string(steps), false);
  field("final_time", std::to_string(final_time), false);
  field("total_actions", std::to_string(total_actions), false);
  field("max_epoch", std::to_string(max_epoch), false);
  field("observations", std::to_string(observations), false);
  field("injected_faults", std::to_string(injected_faults), false);
  field("trace_crc", hex32(trace_crc), true);
  field("final_fingerprint", json_escape(final_fingerprint), true);

  std::string violations_json = "[";
  for (std::size_t i = 0; i < violations.size(); ++i) {
    if (i > 0) violations_json += ",";
    const Violation& v = violations[i];
    violations_json += "{\"kind\":\"" + json_escape(v.kind) +
                       "\",\"site\":\"" + json_escape(v.site) +
                       "\",\"detail\":\"" + json_escape(v.detail) +
                       "\",\"time\":" + std::to_string(v.time) + "}";
  }
  violations_json += "]";
  field("violations", violations_json, false);

  field("stats",
        "{\"performs\":" + std::to_string(totals.performs) +
            ",\"merges\":" + std::to_string(totals.merges) +
            ",\"merge_noops\":" + std::to_string(totals.merge_noops) +
            ",\"merge_aborted\":" + std::to_string(totals.merge_aborted) +
            ",\"transfers\":" + std::to_string(totals.transfers) +
            ",\"demotions\":" + std::to_string(totals.demotions) +
            ",\"quarantines\":" + std::to_string(totals.quarantines) +
            ",\"stale_heard\":" + std::to_string(totals.stale_heard) +
            ",\"stable_conflicts\":" +
            std::to_string(totals.stable_conflicts) + "}",
        false);
  field("commit",
        "{\"stable_height\":" + std::to_string(stable_height) +
            ",\"stable_actions\":" + std::to_string(stable_actions) +
            ",\"proposals\":" +
            std::to_string(commit_totals.proposals_made) +
            ",\"votes\":" + std::to_string(commit_totals.votes_cast) +
            ",\"runoff_votes\":" +
            std::to_string(commit_totals.runoff_votes) +
            ",\"decisions\":" + std::to_string(commit_totals.decisions) +
            ",\"fast_forwards\":" +
            std::to_string(commit_totals.fast_forwards) +
            ",\"rebases\":" + std::to_string(commit_totals.rebases) +
            ",\"rebase_failures\":" +
            std::to_string(commit_totals.rebase_failures) +
            ",\"frames\":" + std::to_string(commit_totals.frames_received) +
            ",\"quarantines\":" +
            std::to_string(commit_totals.quarantines) + "}",
        false);
  field("net",
        "{\"sent\":" + std::to_string(net.sent) +
            ",\"delivered\":" + std::to_string(net.delivered) +
            ",\"lost\":" + std::to_string(net.lost) +
            ",\"duplicated\":" + std::to_string(net.duplicated) +
            ",\"delayed\":" + std::to_string(net.delayed) +
            ",\"dropped_partition\":" +
            std::to_string(net.dropped_partition) +
            ",\"dropped_down\":" + std::to_string(net.dropped_down) +
            ",\"timers\":" + std::to_string(net.timers) + "}",
        false);
  out += "}";
  return out;
}

}  // namespace icecube
