#include "mc/schedule.hpp"

#include <algorithm>

#include "mc/mc_spec_codec.hpp"
#include "util/format.hpp"

namespace icecube::mc {

McRunResult run_mc_schedule(const McConfig& config,
                            const std::vector<Choice>& schedule,
                            CaptureSink* sink) {
  ScopedProtocolMutant guard(config.mutant);
  McRunResult result;
  McWorld world(config, sink);
  result.applied_all = true;
  for (const Choice& choice : schedule) {
    if (!world.apply(choice)) {
      result.applied_all = false;
      break;
    }
    ++result.applied;
    if (config.algebra && world.quiescent()) (void)world.check_algebra();
  }
  result.violations = world.violations();
  result.trace_crc = world.trace_crc();
  result.final_digest = world.digest();
  result.settled = world.settled();
  if (sink != nullptr) {
    for (const Violation& v : result.violations) {
      sink->record({CaptureRecordKind::kViolation, v.time, v.message()});
    }
    sink->record({CaptureRecordKind::kSummary, world.net().now(),
                  mc_capture_summary(result, schedule.size())});
  }
  return result;
}

McRunResult run_mc_schedule_captured(const McConfig& config,
                                     const std::vector<Choice>& schedule,
                                     CaptureSink& sink) {
  sink.record(
      {CaptureRecordKind::kSpec, 0, encode_mc_spec(config, schedule)});
  return run_mc_schedule(config, schedule, &sink);
}

std::string mc_capture_summary(const McRunResult& result,
                               std::size_t schedule_size) {
  std::string out;
  out += "crc " + hex32(result.trace_crc) + "\n";
  out += "choices " + std::to_string(schedule_size) + "\n";
  out += "applied " + std::to_string(result.applied) + "\n";
  out += "violations " + std::to_string(result.violations.size()) + "\n";
  out += "settled " + std::string(result.settled ? "1" : "0") + "\n";
  out += "digest " + hex64(result.final_digest);
  return out;
}

std::vector<Choice> witness_schedule(const McConfig& config) {
  ScopedProtocolMutant guard(config.mutant);
  McWorld world(config);
  std::vector<Choice> schedule;
  constexpr std::size_t kMaxRounds = 64;
  constexpr std::size_t kMaxChoices = 20000;

  for (std::size_t round = 0; round < kMaxRounds; ++round) {
    // Everyone takes a step (ring partner), then the network drains.
    const std::size_t n = world.sites();
    for (std::size_t s = 0; s < n; ++s) {
      const Choice step{ChoiceKind::kStep, static_cast<std::uint8_t>(s),
                        static_cast<std::uint8_t>((s + 1) % n)};
      if (world.apply(step)) schedule.push_back(step);
    }
    for (;;) {
      const std::vector<Choice> choices = world.enabled();
      const auto it =
          std::find_if(choices.begin(), choices.end(), [](const Choice& c) {
            return c.kind == ChoiceKind::kDeliver;
          });
      if (it == choices.end() || schedule.size() >= kMaxChoices) break;
      if (!world.apply(*it)) break;
      schedule.push_back(*it);
    }
    if (world.settled()) return schedule;
    if (schedule.size() >= kMaxChoices) break;
  }
  return {};
}

}  // namespace icecube::mc
