#include "stream/stream_spec_codec.hpp"

#include <string_view>
#include <utility>
#include <vector>

#include "serialize/framing.hpp"
#include "util/rng.hpp"

namespace icecube {

namespace {

constexpr std::string_view kSpecMagic = "stream-spec";
constexpr int kSpecVersion = 1;

}  // namespace

std::string encode_stream_spec(const StreamSpec& spec) {
  using serialize_detail::fmt_double;
  using serialize_detail::put;
  std::string out;
  serialize_detail::put_spec_header(out, kSpecMagic, kSpecVersion);
  const workload::FagesSpec& w = spec.workload;
  put(out, "replicas", std::to_string(w.replicas));
  put(out, "tasks", std::to_string(w.tasks_per_replica));
  put(out, "density", fmt_double(w.dependency_density));
  put(out, "conflict", fmt_double(w.conflict_ratio));
  put(out, "resources", std::to_string(w.shared_resources));
  put(out, "capacity", std::to_string(w.resource_capacity));
  put(out, "seed", std::to_string(w.seed));
  put(out, "backend",
      std::string(spec.backend == SolverKind::kLocalSearch ? "ls"
                                                           : "greedy"));
  put(out, "arrival", std::string(to_string(spec.arrival)));
  put(out, "arrival-seed", std::to_string(spec.arrival_seed));
  put(out, "batch", std::to_string(spec.batch));
  put(out, "quiescence", std::to_string(spec.commit_quiescence));
  return out;
}

StreamSpecDecode decode_stream_spec(const std::string& text) {
  StreamSpecDecode out;
  const serialize_detail::SpecLines spec_lines =
      serialize_detail::split_spec(text, kSpecMagic, kSpecVersion);
  if (!spec_lines.ok()) {
    out.error = spec_lines.error;
    return out;
  }
  const std::vector<std::string_view>& lines = spec_lines.lines;

  StreamSpec& spec = out.spec;
  workload::FagesSpec& w = spec.workload;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    serialize_detail::SpecLine in(lines[i], i + 1, out.error);
    if (in.tokens.empty()) continue;
    const std::string_view key = in.tokens.front();

    bool handled = true;
    if (key == "replicas") {
      handled = in.want(1) && in.num(1, w.replicas);
    } else if (key == "tasks") {
      handled = in.want(1) && in.num(1, w.tasks_per_replica);
    } else if (key == "density") {
      handled = in.want(1) && in.dbl(1, w.dependency_density);
    } else if (key == "conflict") {
      handled = in.want(1) && in.dbl(1, w.conflict_ratio);
    } else if (key == "resources") {
      handled = in.want(1) && in.num(1, w.shared_resources);
    } else if (key == "capacity") {
      handled = in.want(1) && in.num(1, w.resource_capacity);
    } else if (key == "seed") {
      handled = in.want(1) && in.num(1, w.seed);
    } else if (key == "backend") {
      if (!in.want(1)) {
        handled = false;
      } else if (in.tokens[1] == "greedy") {
        spec.backend = SolverKind::kGreedy;
      } else if (in.tokens[1] == "ls") {
        spec.backend = SolverKind::kLocalSearch;
      } else {
        handled = in.fail(DecodeErrorKind::kBadSyntax,
                          std::string(in.tokens[1]));
      }
    } else if (key == "arrival") {
      if (!in.want(1)) {
        handled = false;
      } else if (in.tokens[1] == "flatten") {
        spec.arrival = StreamArrival::kFlatten;
      } else if (in.tokens[1] == "roundrobin") {
        spec.arrival = StreamArrival::kRoundRobin;
      } else if (in.tokens[1] == "shuffled") {
        spec.arrival = StreamArrival::kShuffled;
      } else {
        handled = in.fail(DecodeErrorKind::kBadSyntax,
                          std::string(in.tokens[1]));
      }
    } else if (key == "arrival-seed") {
      handled = in.want(1) && in.num(1, spec.arrival_seed);
    } else if (key == "batch") {
      handled = in.want(1) && in.num(1, spec.batch);
    } else if (key == "quiescence") {
      handled = in.want(1) && in.num(1, spec.commit_quiescence);
    } else {
      handled =
          in.fail(DecodeErrorKind::kBadSyntax, std::string(in.line()));
    }
    if (!handled) return out;
  }
  return out;
}

/// The arrival interleaving as (log, position) pairs, per-log order kept.
static std::vector<std::pair<std::uint32_t, std::uint32_t>> arrival_order(
    const StreamSpec& spec, const std::vector<Log>& logs) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;
  std::size_t total = 0;
  for (const Log& log : logs) total += log.size();
  order.reserve(total);
  switch (spec.arrival) {
    case StreamArrival::kFlatten:
      for (std::uint32_t l = 0; l < logs.size(); ++l) {
        for (std::uint32_t p = 0; p < logs[l].size(); ++p) {
          order.emplace_back(l, p);
        }
      }
      break;
    case StreamArrival::kRoundRobin: {
      bool more = true;
      for (std::uint32_t p = 0; more; ++p) {
        more = false;
        for (std::uint32_t l = 0; l < logs.size(); ++l) {
          if (p < logs[l].size()) {
            order.emplace_back(l, p);
            more = true;
          }
        }
      }
      break;
    }
    case StreamArrival::kShuffled: {
      Rng rng(spec.arrival_seed);
      std::vector<std::uint32_t> next(logs.size(), 0);
      std::size_t remaining = total;
      while (remaining > 0) {
        std::uint64_t r = rng.below(remaining);
        for (std::uint32_t l = 0; l < logs.size(); ++l) {
          const std::uint64_t left = logs[l].size() - next[l];
          if (r < left) {
            order.emplace_back(l, next[l]++);
            break;
          }
          r -= left;
        }
        --remaining;
      }
      break;
    }
  }
  return order;
}

StreamRunReport run_stream(const StreamSpec& spec, CaptureSink* sink) {
  workload::Generated gen = workload::fages_workload(spec.workload);

  StreamOptions options;
  options.backend = spec.backend;
  options.commit_quiescence = spec.commit_quiescence;
  options.epoch_budget_us = 0;  // wall-clock degradation is not replayable

  StreamReconciler core(std::move(gen.initial), options, sink);
  const auto order = arrival_order(spec, gen.logs);
  std::uint32_t since_epoch = 0;
  for (const auto& [l, p] : order) {
    core.ingest(LogId(l), gen.logs[l].ptr(p));
    if (spec.batch > 0 && ++since_epoch >= spec.batch) {
      core.run_epoch();
      since_epoch = 0;
    }
  }
  if (since_epoch > 0) core.run_epoch();

  StreamRunReport report;
  report.result = core.finish();
  report.counters = core.counters();
  report.stats = core.stats();
  report.trace_crc = sink != nullptr ? core.trace_crc() : 0;
  return report;
}

StreamRunReport run_stream_captured(const StreamSpec& spec,
                                    CaptureSink& sink) {
  sink.record({CaptureRecordKind::kSpec, 0, encode_stream_spec(spec)});
  return run_stream(spec, &sink);
}

}  // namespace icecube
