// Tests for the exhaustive protocol model checker (src/mc/): the SimNet
// choice-point seam, world forking and the state digest, the spec codec,
// sleep-set/transposition reduction, the seeded historical-bug mutants
// (each must be found, minimized, and replay bit-exactly through the
// capture pipeline), and the convergent witness schedule.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <ostream>
#include <string>
#include <vector>

#include "capture/replay_engine.hpp"
#include "capture/wire_log_writer.hpp"
#include "core/mutation.hpp"
#include "fault/fault_plan.hpp"
#include "mc/explorer.hpp"
#include "mc/mc_spec_codec.hpp"
#include "mc/minimize.hpp"
#include "mc/schedule.hpp"
#include "simnet/simnet.hpp"

namespace icecube {
namespace {

using mc::Choice;
using mc::ChoiceKind;
using mc::McConfig;

McConfig small_config(std::size_t sites, std::size_t actions,
                      std::uint64_t seed = 1) {
  McConfig config;
  config.sites = sites;
  config.actions = actions;
  config.seed = seed;
  return config;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("icecube-mc-test-" + std::to_string(::getpid()) + "-" + name))
      .string();
}

// --- SimNet choice-point seam -------------------------------------------

TEST(McSeam, PendingDeliveriesEnumerateInSendOrder) {
  SimNet net(1, FaultSpec{});
  net.add_site("s0");
  net.add_site("s1");
  net.send("s0", "s1", "a");
  net.send("s0", "s1", "b");

  const std::vector<PendingDelivery> pending = net.pending_deliveries();
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_LT(pending[0].seq, pending[1].seq);
  EXPECT_EQ(pending[0].payload, "a");
  EXPECT_EQ(pending[1].payload, "b");
  EXPECT_EQ(pending[0].from, "s0");
  EXPECT_EQ(pending[0].to, "s1");
}

TEST(McSeam, TakeDeliveryConsumesChosenMessage) {
  SimNet net(1, FaultSpec{});
  net.add_site("s0");
  net.add_site("s1");
  net.send("s0", "s1", "a");
  net.send("s0", "s1", "b");

  // Take out of order: the second message first.
  const auto pending = net.pending_deliveries();
  const auto event = net.take_delivery(pending[1].seq);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->kind, SimEvent::Kind::kDeliver);
  EXPECT_EQ(event->payload, "b");
  ASSERT_EQ(net.pending_deliveries().size(), 1u);
  EXPECT_EQ(net.pending_deliveries()[0].payload, "a");

  // A stale handle is a miss, not a crash.
  EXPECT_FALSE(net.take_delivery(pending[1].seq).has_value());
}

TEST(McSeam, DropAndDuplicateAreCountedAndKeepHandlesStable) {
  SimNet net(1, FaultSpec{});
  net.add_site("s0");
  net.add_site("s1");
  net.send("s0", "s1", "a");
  net.send("s0", "s1", "b");

  const auto pending = net.pending_deliveries();
  EXPECT_TRUE(net.drop_delivery(pending[0].seq));
  EXPECT_EQ(net.counters().lost, 1u);
  EXPECT_FALSE(net.drop_delivery(pending[0].seq));

  const auto copy = net.duplicate_delivery(pending[1].seq);
  ASSERT_TRUE(copy.has_value());
  EXPECT_EQ(net.counters().duplicated, 1u);
  const auto after = net.pending_deliveries();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(after[0].id, after[1].id);  // fault-plan duplicate semantics
  EXPECT_EQ(after[0].payload, "b");
  EXPECT_EQ(after[1].payload, "b");
}

TEST(McSeam, ForceCrashDropsDeliveriesUntilRestart) {
  SimNet net(1, FaultSpec{});
  net.add_site("s0");
  net.add_site("s1");
  net.send("s0", "s1", "a");

  net.force_crash("s1");
  EXPECT_FALSE(net.is_up("s1"));
  const auto pending = net.pending_deliveries();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_FALSE(net.take_delivery(pending[0].seq).has_value());
  EXPECT_EQ(net.counters().dropped_down, 1u);

  net.force_restart("s1");
  EXPECT_TRUE(net.is_up("s1"));
  net.send("s0", "s1", "b");
  const auto event = net.take_delivery(net.pending_deliveries()[0].seq);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->payload, "b");
}

TEST(McSeam, ForceCutBlocksLinkUntilHeal) {
  SimNet net(1, FaultSpec{});
  net.add_site("s0");
  net.add_site("s1");

  // A message already in flight when the cut lands is dropped at its
  // delivery instant (cut-at-send never queues anything at all).
  net.send("s0", "s1", "a");
  net.force_cut("s0", "s1");
  EXPECT_FALSE(net.link_open("s0", "s1"));
  const auto pending = net.pending_deliveries();
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_FALSE(net.take_delivery(pending[0].seq).has_value());
  EXPECT_EQ(net.counters().dropped_partition, 1u);

  net.force_heal("s0", "s1");
  EXPECT_TRUE(net.link_open("s0", "s1"));
  net.send("s0", "s1", "b");
  const auto event = net.take_delivery(net.pending_deliveries()[0].seq);
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->payload, "b");
}

// --- world fork + digest ------------------------------------------------

TEST(McWorld, GenesisOffersOnlySteps) {
  mc::McWorld world(small_config(3, 3));
  for (const Choice& c : world.enabled()) {
    EXPECT_EQ(c.kind, ChoiceKind::kStep) << c.describe();
  }
  // 3 sites x 2 peers each.
  EXPECT_EQ(world.enabled().size(), 6u);
}

TEST(McWorld, FaultChoicesAppearOnlyWithBudget) {
  McConfig config = small_config(2, 1);
  config.max_crashes = 1;
  mc::McWorld world(config);
  std::size_t crashes = 0;
  for (const Choice& c : world.enabled()) {
    if (c.kind == ChoiceKind::kCrash) ++crashes;
  }
  EXPECT_EQ(crashes, 2u);  // either site may crash

  ASSERT_TRUE(world.apply({ChoiceKind::kCrash, 0, 0, 0}));
  std::size_t more_crashes = 0;
  std::size_t restarts = 0;
  for (const Choice& c : world.enabled()) {
    if (c.kind == ChoiceKind::kCrash) ++more_crashes;
    if (c.kind == ChoiceKind::kRestart) ++restarts;
  }
  EXPECT_EQ(more_crashes, 0u);  // budget spent
  EXPECT_EQ(restarts, 1u);      // recovery stays enabled (fairness)
}

TEST(McWorld, ForkEvolvesIndependentlyAndDeterministically) {
  mc::McWorld a(small_config(2, 2));
  ASSERT_TRUE(a.apply({ChoiceKind::kStep, 0, 1, 0}));

  mc::McWorld b(a);  // fork
  EXPECT_EQ(a.digest(), b.digest());

  // The same choice applied to both forks produces the same digest...
  ASSERT_TRUE(a.apply({ChoiceKind::kDeliver, 0, 1, 0}));
  const std::uint64_t before = b.digest();
  ASSERT_TRUE(b.apply({ChoiceKind::kDeliver, 0, 1, 0}));
  EXPECT_EQ(a.digest(), b.digest());
  // ...and the fork really did move (copy was deep, not aliased).
  EXPECT_NE(b.digest(), before);
}

TEST(McWorld, IndependentChoicesCommuteInTheDigest) {
  // Steps at different sites are independent: both orders must land on
  // the same digest (this is what makes the transposition table merge
  // the interleavings the sleep sets don't prune).
  const McConfig config = small_config(3, 3);
  mc::McWorld ab(config);
  mc::McWorld ba(config);
  const Choice step0{ChoiceKind::kStep, 0, 1, 0};
  const Choice step1{ChoiceKind::kStep, 1, 2, 0};
  ASSERT_TRUE(mc::independent(step0, step1));

  ASSERT_TRUE(ab.apply(step0));
  ASSERT_TRUE(ab.apply(step1));
  ASSERT_TRUE(ba.apply(step1));
  ASSERT_TRUE(ba.apply(step0));
  EXPECT_EQ(ab.digest(), ba.digest());

  // Dependent choices (same mutated site) must NOT be treated as
  // independent by the relation.
  const Choice also0{ChoiceKind::kStep, 0, 2, 0};
  EXPECT_FALSE(mc::independent(step0, also0));
  EXPECT_FALSE(
      mc::independent(step1, Choice{ChoiceKind::kDeliver, 0, 1, 0}));
}

TEST(McWorld, InapplicableChoicesAreRejected) {
  mc::McWorld world(small_config(2, 1));
  EXPECT_FALSE(world.apply({ChoiceKind::kDeliver, 0, 1, 0}));  // nothing sent
  EXPECT_FALSE(world.apply({ChoiceKind::kStep, 0, 0, 0}));     // self peer
  EXPECT_FALSE(world.apply({ChoiceKind::kStep, 5, 0, 0}));     // no such site
  EXPECT_FALSE(world.apply({ChoiceKind::kCrash, 0, 0, 0}));    // no budget
  EXPECT_FALSE(world.apply({ChoiceKind::kDrop, 0, 1, 0}));     // no budget
}

// --- spec codec ---------------------------------------------------------

TEST(McSpecCodec, RoundTripsBytesExactly) {
  McConfig config = small_config(3, 4, 7);
  config.commitment = false;
  config.withhold = true;
  config.max_drops = 2;
  config.max_cuts = 1;
  config.mutant = ProtocolMutant::kTransferDropDemoted;
  const std::vector<Choice> schedule = {
      {ChoiceKind::kStep, 0, 1, 0},
      {ChoiceKind::kDeliver, 0, 1, 0},
      {ChoiceKind::kDrop, 1, 0, 0},
      {ChoiceKind::kCut, 0, 2, 0},
  };

  const std::string wire = mc::encode_mc_spec(config, schedule);
  const mc::McSpecDecode decoded = mc::decode_mc_spec(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.error.message();
  EXPECT_EQ(decoded.config.sites, config.sites);
  EXPECT_EQ(decoded.config.actions, config.actions);
  EXPECT_EQ(decoded.config.seed, config.seed);
  EXPECT_EQ(decoded.config.commitment, config.commitment);
  EXPECT_EQ(decoded.config.withhold, config.withhold);
  EXPECT_EQ(decoded.config.max_drops, config.max_drops);
  EXPECT_EQ(decoded.config.max_cuts, config.max_cuts);
  EXPECT_EQ(decoded.config.mutant, config.mutant);
  ASSERT_EQ(decoded.schedule.size(), schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    EXPECT_EQ(decoded.schedule[i], schedule[i]) << i;
  }
  EXPECT_EQ(mc::encode_mc_spec(decoded.config, decoded.schedule), wire);
}

TEST(McSpecCodec, RejectsMalformedSpecs) {
  EXPECT_EQ(mc::decode_mc_spec("").error.kind, DecodeErrorKind::kEmptyInput);
  EXPECT_EQ(mc::decode_mc_spec("chaos-spec 1\n").error.kind,
            DecodeErrorKind::kBadHeader);
  EXPECT_EQ(mc::decode_mc_spec("mc-spec 9\n").error.kind,
            DecodeErrorKind::kUnsupportedVersion);
  EXPECT_EQ(mc::decode_mc_spec("mc-spec 1\nsites many\n").error.kind,
            DecodeErrorKind::kBadNumber);
  EXPECT_EQ(mc::decode_mc_spec("mc-spec 1\nmutant 99\n").error.kind,
            DecodeErrorKind::kBadNumber);
  EXPECT_EQ(mc::decode_mc_spec("mc-spec 1\nchoice warp 0 1 0\n").error.kind,
            DecodeErrorKind::kBadSyntax);
  EXPECT_EQ(mc::decode_mc_spec("mc-spec 1\nfrobnicate 3\n").error.kind,
            DecodeErrorKind::kUnknownOp);
}

// --- exploration --------------------------------------------------------

TEST(McExplore, ShippedProtocolExploresCleanAndComplete) {
  mc::ExploreOptions options;
  options.depth = 8;
  options.states_budget = 2'000'000;
  const mc::McReport report = mc::explore(small_config(2, 2), options);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.clean());
  EXPECT_FALSE(report.budget_exhausted);
  EXPECT_GT(report.transitions, 0u);
  EXPECT_GT(report.distinct_states, 0u);
  EXPECT_GT(report.tt_hits, 0u);
  EXPECT_GT(report.sleep_skips, 0u);
}

TEST(McExplore, ThreeSiteConfigExploresCleanAndComplete) {
  mc::ExploreOptions options;
  options.depth = 5;
  options.states_budget = 2'000'000;
  const mc::McReport report = mc::explore(small_config(3, 3), options);
  EXPECT_TRUE(report.complete);
  EXPECT_TRUE(report.clean());
}

TEST(McExplore, ReductionPrunesWithoutChangingTheVerdict) {
  mc::ExploreOptions options;
  options.depth = 6;
  options.states_budget = 2'000'000;

  options.reduction = false;
  const mc::McReport full = mc::explore(small_config(2, 2), options);
  options.reduction = true;
  const mc::McReport reduced = mc::explore(small_config(2, 2), options);

  EXPECT_TRUE(full.complete);
  EXPECT_TRUE(reduced.complete);
  EXPECT_TRUE(full.clean());
  EXPECT_TRUE(reduced.clean());
  EXPECT_LT(reduced.transitions, full.transitions);
  EXPECT_EQ(full.tt_hits, 0u);
  EXPECT_EQ(full.sleep_skips, 0u);
}

TEST(McExplore, BudgetExhaustionIsReportedNotSilent) {
  mc::ExploreOptions options;
  options.depth = 12;
  options.states_budget = 500;
  const mc::McReport report = mc::explore(small_config(3, 3), options);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_FALSE(report.complete);
  EXPECT_LE(report.transitions, 500u);
}

TEST(McExplore, ReportJsonCarriesTheCoreFields) {
  mc::ExploreOptions options;
  options.depth = 4;
  const mc::McReport report = mc::explore(small_config(2, 1), options);
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"transitions\""), std::string::npos);
  EXPECT_NE(json.find("\"distinct_states\""), std::string::npos);
  EXPECT_NE(json.find("\"complete\""), std::string::npos);
  EXPECT_NE(json.find("\"counterexample\""), std::string::npos);
}

// --- seeded historical bugs (mutants) -----------------------------------

struct MutantCase {
  ProtocolMutant mutant;
  std::size_t sites;
  std::size_t actions;
  std::uint64_t seed;
  std::size_t depth;
};

// Names each case by its mutant (e.g. `merge_epoch_no_bump`). Without this
// gtest prints the struct's raw bytes, uninitialised padding included, and
// the test names change from run to run.
void PrintTo(const MutantCase& c, std::ostream* os) {
  for (const char ch : to_string(c.mutant)) *os << (ch == '-' ? '_' : ch);
}

class McMutant : public ::testing::TestWithParam<MutantCase> {};

// Each seeded bug must be found by the checker, survive delta-debugging
// minimization, and round-trip through the capture pipeline bit-exactly.
TEST_P(McMutant, IsFoundMinimizedAndReplaysBitExact) {
  const MutantCase& param = GetParam();
  McConfig config = small_config(param.sites, param.actions, param.seed);
  config.mutant = param.mutant;

  mc::ExploreOptions options;
  options.depth = param.depth;
  options.states_budget = 2'000'000;
  const mc::McReport report = mc::explore(config, options);
  ASSERT_TRUE(report.counterexample.has_value())
      << to_string(param.mutant) << " was not detected";
  ASSERT_FALSE(report.counterexample->violations.empty());

  // The raw trace reproduces, and its ddmin shrink still reproduces.
  const std::vector<Choice>& raw = report.counterexample->trace;
  EXPECT_TRUE(mc::schedule_reproduces(config, raw));
  const std::vector<Choice> minimized = mc::minimize_trace(config, raw);
  EXPECT_LE(minimized.size(), raw.size());
  ASSERT_TRUE(mc::schedule_reproduces(config, minimized));

  // 1-minimal: removing any single choice loses the violation.
  for (std::size_t skip = 0; skip < minimized.size(); ++skip) {
    std::vector<Choice> shorter;
    for (std::size_t i = 0; i < minimized.size(); ++i) {
      if (i != skip) shorter.push_back(minimized[i]);
    }
    EXPECT_FALSE(mc::schedule_reproduces(config, shorter))
        << "removable choice " << minimized[skip].describe();
  }

  // The minimized counterexample replays bit-exactly through the PR 8
  // capture pipeline.
  const std::string path =
      temp_path(std::string(to_string(param.mutant)) + ".icap");
  std::string error;
  ASSERT_TRUE(write_mc_capture_file(path, config, minimized, &error))
      << error;
  const ReplayResult replay = replay_capture_file(path);
  EXPECT_TRUE(replay.faithful()) << replay.to_json();
  EXPECT_TRUE(replay.crc_checked);
  EXPECT_TRUE(replay.crc_match);
  std::filesystem::remove(path);

  // The scoped mutant did not leak into the process state.
  EXPECT_EQ(active_protocol_mutant(), ProtocolMutant::kNone);
}

// The same configurations explore clean when the bug is not seeded: the
// detections above are properties of the seeded defect, not noise. The
// deep configs are capped by a transition budget to keep CI fast; the
// budget exceeds what every mutant needed to be found.
TEST_P(McMutant, ShippedProtocolIsCleanOnTheSameConfig) {
  const MutantCase& param = GetParam();
  const McConfig config =
      small_config(param.sites, param.actions, param.seed);
  mc::ExploreOptions options;
  options.depth = param.depth;
  options.states_budget = 60'000;
  const mc::McReport report = mc::explore(config, options);
  EXPECT_TRUE(report.clean()) << report.to_json();
}

INSTANTIATE_TEST_SUITE_P(
    SeededBugs, McMutant,
    ::testing::Values(
        MutantCase{ProtocolMutant::kPluralityIgnoreUnheard, 2, 2, 1, 8},
        MutantCase{ProtocolMutant::kMergeEpochNoBump, 2, 2, 2, 8},
        MutantCase{ProtocolMutant::kTransferDropDemoted, 2, 3, 4, 10},
        MutantCase{ProtocolMutant::kRebaseDropDemoted, 2, 3, 1, 10},
        MutantCase{ProtocolMutant::kStablePrefixRewrite, 2, 3, 1, 10}));

// --- schedules, witnesses and replay ------------------------------------

TEST(McSchedule, WitnessDrivesTheConfigToFullConvergence) {
  const McConfig config = small_config(3, 3);
  const std::vector<Choice> schedule = mc::witness_schedule(config);
  ASSERT_FALSE(schedule.empty());

  const mc::McRunResult result = mc::run_mc_schedule(config, schedule);
  EXPECT_TRUE(result.applied_all);
  EXPECT_EQ(result.applied, schedule.size());
  EXPECT_TRUE(result.settled);
  EXPECT_FALSE(result.violated());
}

TEST(McSchedule, RunsAreDeterministic) {
  const McConfig config = small_config(3, 3);
  const std::vector<Choice> schedule = mc::witness_schedule(config);
  ASSERT_FALSE(schedule.empty());
  const mc::McRunResult a = mc::run_mc_schedule(config, schedule);
  const mc::McRunResult b = mc::run_mc_schedule(config, schedule);
  EXPECT_EQ(a.trace_crc, b.trace_crc);
  EXPECT_EQ(a.final_digest, b.final_digest);
}

TEST(McSchedule, WitnessCaptureReplaysBitExact) {
  const McConfig config = small_config(3, 3);
  const std::vector<Choice> schedule = mc::witness_schedule(config);
  ASSERT_FALSE(schedule.empty());

  const std::string path = temp_path("witness.icap");
  std::string error;
  ASSERT_TRUE(write_mc_capture_file(path, config, schedule, &error))
      << error;
  const ReplayResult replay = replay_capture_file(path);
  EXPECT_TRUE(replay.faithful()) << replay.to_json();
  EXPECT_TRUE(replay.crc_checked);
  EXPECT_GT(replay.frames_compared, 0u);
  std::filesystem::remove(path);
}

TEST(McSchedule, TamperedCaptureIsReportedAsDivergent) {
  const McConfig config = small_config(2, 2);
  std::vector<Choice> schedule = mc::witness_schedule(config);
  ASSERT_FALSE(schedule.empty());

  // Record with one schedule, then claim another in the spec frame: the
  // replay must notice the frames do not reproduce.
  MemoryCaptureSink sink;
  (void)mc::run_mc_schedule_captured(config, schedule, sink);
  std::vector<CaptureRecord> records = sink.records();
  ASSERT_FALSE(records.empty());
  std::vector<Choice> other = schedule;
  other.pop_back();
  records.front().payload = mc::encode_mc_spec(config, other);

  const std::string path = temp_path("tampered.icap");
  WireLogWriter writer(path);
  for (const CaptureRecord& record : records) writer.record(record);
  writer.close();
  ASSERT_TRUE(writer.error().ok());

  const ReplayResult replay = replay_capture_file(path);
  EXPECT_TRUE(replay.error.ok());
  EXPECT_FALSE(replay.faithful());
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace icecube
