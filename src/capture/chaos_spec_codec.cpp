#include "capture/chaos_spec_codec.hpp"

#include <string_view>
#include <vector>

#include "serialize/framing.hpp"

namespace icecube {

namespace {

constexpr std::string_view kSpecMagic = "chaos-spec";
constexpr int kSpecVersion = 1;

}  // namespace

std::string encode_chaos_spec(const ChaosSpec& spec) {
  using serialize_detail::fmt_double;
  using serialize_detail::put;
  std::string out;
  serialize_detail::put_spec_header(out, kSpecMagic, kSpecVersion);
  put(out, "seed", std::to_string(spec.seed));
  put(out, "sites", std::to_string(spec.sites));
  put(out, "actions", std::to_string(spec.actions_per_site));
  put(out, "interval", std::to_string(spec.gossip_interval));
  put(out, "budget", std::to_string(spec.step_budget));
  put(out, "horizon", std::to_string(spec.fault_horizon));
  put(out, "pwindow", std::to_string(spec.partition_window));
  put(out, "crashlen", std::to_string(spec.crash_length));
  put(out, "deep", spec.deep_replay ? "1" : "0");
  put(out, "commit", spec.commitment ? "1" : "0");
  const FaultSpec& f = spec.faults;
  put(out, "corrupt", fmt_double(f.corrupt));
  put(out, "truncate", fmt_double(f.truncate));
  put(out, "site-down", fmt_double(f.site_down));
  put(out, "lose", fmt_double(f.lose));
  put(out, "max-corrupt", std::to_string(f.max_corrupt_bytes));
  put(out, "delay-max", std::to_string(f.delay_max));
  put(out, "reorder", fmt_double(f.reorder));
  put(out, "reorder-max", std::to_string(f.reorder_max));
  put(out, "duplicate", fmt_double(f.duplicate));
  put(out, "partition", fmt_double(f.partition));
  put(out, "drop-vote", fmt_double(f.drop_vote));
  put(out, "stale-vote", fmt_double(f.stale_vote));
  put(out, "capture-crash", fmt_double(f.capture_crash));
  put(out, "capture-short", fmt_double(f.capture_short));
  put(out, "capture-flip", fmt_double(f.capture_flip));
  for (const ChaosPartition& p : spec.partitions) {
    put(out, "cut",
        p.a + " " + p.b + " " + std::to_string(p.at) + " " +
            std::to_string(p.heal_at));
  }
  for (const ChaosCrash& c : spec.crashes) {
    put(out, "crash",
        c.site + " " + std::to_string(c.at) + " " +
            std::to_string(c.restart_at));
  }
  return out;
}

ChaosSpecDecode decode_chaos_spec(const std::string& text) {
  ChaosSpecDecode out;
  const serialize_detail::SpecLines spec_lines =
      serialize_detail::split_spec(text, kSpecMagic, kSpecVersion);
  if (!spec_lines.ok()) {
    out.error = spec_lines.error;
    return out;
  }
  const std::vector<std::string_view>& lines = spec_lines.lines;

  ChaosSpec& spec = out.spec;
  FaultSpec& f = spec.faults;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    serialize_detail::SpecLine in(lines[i], i + 1, out.error);
    if (in.tokens.empty()) continue;
    const std::string_view key = in.tokens.front();

    bool handled = true;
    if (key == "seed") {
      handled = in.want(1) && in.num(1, spec.seed);
    } else if (key == "sites") {
      handled = in.want(1) && in.num(1, spec.sites);
    } else if (key == "actions") {
      handled = in.want(1) && in.num(1, spec.actions_per_site);
    } else if (key == "interval") {
      handled = in.want(1) && in.num(1, spec.gossip_interval);
    } else if (key == "budget") {
      handled = in.want(1) && in.num(1, spec.step_budget);
    } else if (key == "horizon") {
      handled = in.want(1) && in.num(1, spec.fault_horizon);
    } else if (key == "pwindow") {
      handled = in.want(1) && in.num(1, spec.partition_window);
    } else if (key == "crashlen") {
      handled = in.want(1) && in.num(1, spec.crash_length);
    } else if (key == "deep") {
      handled = in.want(1) && in.flag(1, spec.deep_replay);
    } else if (key == "commit") {
      handled = in.want(1) && in.flag(1, spec.commitment);
    } else if (key == "corrupt") {
      handled = in.want(1) && in.dbl(1, f.corrupt);
    } else if (key == "truncate") {
      handled = in.want(1) && in.dbl(1, f.truncate);
    } else if (key == "site-down") {
      handled = in.want(1) && in.dbl(1, f.site_down);
    } else if (key == "lose") {
      handled = in.want(1) && in.dbl(1, f.lose);
    } else if (key == "max-corrupt") {
      handled = in.want(1) && in.num(1, f.max_corrupt_bytes);
    } else if (key == "delay-max") {
      handled = in.want(1) && in.num(1, f.delay_max);
    } else if (key == "reorder") {
      handled = in.want(1) && in.dbl(1, f.reorder);
    } else if (key == "reorder-max") {
      handled = in.want(1) && in.num(1, f.reorder_max);
    } else if (key == "duplicate") {
      handled = in.want(1) && in.dbl(1, f.duplicate);
    } else if (key == "partition") {
      handled = in.want(1) && in.dbl(1, f.partition);
    } else if (key == "drop-vote") {
      handled = in.want(1) && in.dbl(1, f.drop_vote);
    } else if (key == "stale-vote") {
      handled = in.want(1) && in.dbl(1, f.stale_vote);
    } else if (key == "capture-crash") {
      handled = in.want(1) && in.dbl(1, f.capture_crash);
    } else if (key == "capture-short") {
      handled = in.want(1) && in.dbl(1, f.capture_short);
    } else if (key == "capture-flip") {
      handled = in.want(1) && in.dbl(1, f.capture_flip);
    } else if (key == "cut") {
      ChaosPartition p;
      handled = in.want(4) && in.num(3, p.at) && in.num(4, p.heal_at);
      if (handled) {
        p.a = std::string(in.tokens[1]);
        p.b = std::string(in.tokens[2]);
        spec.partitions.push_back(std::move(p));
      }
    } else if (key == "crash") {
      ChaosCrash c;
      handled = in.want(3) && in.num(2, c.at) && in.num(3, c.restart_at);
      if (handled) {
        c.site = std::string(in.tokens[1]);
        spec.crashes.push_back(std::move(c));
      }
    } else {
      in.fail(DecodeErrorKind::kUnknownOp, std::string(key));
      return out;
    }
    if (!handled) return out;
  }
  return out;
}

}  // namespace icecube
