// Tests for the log codec: escaping, round-trips across every substrate,
// replay equivalence, malformed-input handling.
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "jigsaw/actions.hpp"
#include "jigsaw/scenario.hpp"
#include "objects/calendar.hpp"
#include "objects/counter.hpp"
#include "objects/file_system.hpp"
#include "objects/line_file.hpp"
#include "objects/rw_register.hpp"
#include "objects/sysadmin.hpp"
#include "objects/text.hpp"
#include "serialize/log_codec.hpp"
#include "test_helpers.hpp"
#include "util/crc32.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using testing::make_log;

/// Round-trips `log` and verifies structural identity (op, targets, params,
/// strings) action by action.
void expect_round_trip(const Log& log) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const std::string encoded = encode_log(log);
  const DecodedLog decoded = decode_log(encoded, registry);
  ASSERT_TRUE(decoded.ok()) << decoded.error << "\n" << encoded;
  ASSERT_EQ(decoded.log->size(), log.size());
  EXPECT_EQ(decoded.log->name(), log.name());
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(decoded.log->at(i).tag(), log.at(i).tag()) << "action " << i;
    EXPECT_EQ(decoded.log->at(i).targets(), log.at(i).targets())
        << "action " << i;
  }
}

TEST(Escaping, RoundTripsSpecials) {
  const std::vector<std::string> cases{
      "plain", "with space", "pipes|and|percents%", "tab\tnl\n", ""};
  for (const std::string& raw : cases) {
    const auto back = unescape_field(escape_field(raw));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, raw);
  }
}

TEST(Escaping, RejectsTruncatedAndBadHex) {
  EXPECT_FALSE(unescape_field("%").has_value());
  EXPECT_FALSE(unescape_field("%2").has_value());
  EXPECT_FALSE(unescape_field("%zz").has_value());
  EXPECT_TRUE(unescape_field("%20").has_value());
}

TEST(LogCodec, CounterAndRegisterRoundTrip) {
  const ObjectId c{0}, r{1};
  expect_round_trip(make_log(
      "bank", {std::make_shared<IncrementAction>(c, 100),
               std::make_shared<DecrementAction>(c, 30),
               std::make_shared<WriteAction>(r, -7),
               std::make_shared<ReadAction>(r),
               std::make_shared<ReadAction>(r, 42)}));
}

TEST(LogCodec, FileSystemRoundTrip) {
  const ObjectId fs{0};
  expect_round_trip(make_log(
      "files",
      {std::make_shared<MkdirAction>(fs, "/dir with space"),
       std::make_shared<WriteFileAction>(fs, "/dir with space/f",
                                         "content | with %pipes%"),
       std::make_shared<DeleteAction>(fs, "/dir with space")}));
}

TEST(LogCodec, CalendarRoundTrip) {
  expect_round_trip(make_log(
      "meetings",
      {std::make_shared<RequestAppointmentAction>(ObjectId(0), ObjectId(2), 9,
                                                  11, "weekly sync"),
       std::make_shared<CancelAppointmentAction>(ObjectId(1), 10)}));
}

TEST(LogCodec, SysAdminRoundTrip) {
  SysAdminExample ex = make_sysadmin_example();
  for (const Log& log : ex.logs) expect_round_trip(log);
}

TEST(LogCodec, JigsawScenarioRoundTrip) {
  const jigsaw::Board board(4, 4);
  expect_round_trip(jigsaw::scenario_u1(board, ObjectId(0), 7));
  expect_round_trip(jigsaw::scenario_u3(board, ObjectId(0), 10, 3));
}

TEST(LogCodec, TextAndLineFileRoundTrip) {
  expect_round_trip(make_log(
      "edits",
      {std::make_shared<InsertTextAction>(ObjectId(0), 1, 5, "hello world"),
       std::make_shared<DeleteTextAction>(ObjectId(0), 2, 0, 3),
       std::make_shared<SetLineAction>(ObjectId(1), 7, "old line",
                                       "new | line")}));
}

TEST(LogCodec, DecodedLogReplaysIdentically) {
  // The decoded log must drive the universe to the same state.
  workload::FsSpec spec;
  spec.seed = 3;
  const auto g = workload::fs_workload(spec);
  const ActionRegistry registry = ActionRegistry::with_builtins();
  for (const Log& log : g.logs) {
    const DecodedLog decoded = decode_log(encode_log(log), registry);
    ASSERT_TRUE(decoded.ok()) << decoded.error;
    Universe original = g.initial;
    Universe reloaded = g.initial;
    for (const auto& a : log) {
      ASSERT_TRUE(a->precondition(original) && a->execute(original));
    }
    for (const auto& a : *decoded.log) {
      ASSERT_TRUE(a->precondition(reloaded) && a->execute(reloaded));
    }
    EXPECT_EQ(original.fingerprint(), reloaded.fingerprint());
  }
}

TEST(LogCodec, EmptyLogRoundTrips) {
  expect_round_trip(Log("empty but named"));
}

TEST(LogCodec, RejectsBadHeader) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  EXPECT_EQ(decode_log("", registry).error.kind,
            DecodeErrorKind::kEmptyInput);
  EXPECT_EQ(decode_log("not-a-log 1 x\n", registry).error.kind,
            DecodeErrorKind::kBadHeader);
  EXPECT_EQ(decode_log("icecube-log 99 x\n", registry).error.kind,
            DecodeErrorKind::kUnsupportedVersion);
}

TEST(LogCodec, RejectsUnknownOp) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const DecodedLog decoded =
      decode_log("icecube-log 1 x\nfrobnicate | 0 | 1 |\n", registry);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.kind, DecodeErrorKind::kUnknownOp);
  EXPECT_EQ(decoded.error.line, 2u);
  EXPECT_NE(decoded.error.message().find("frobnicate"), std::string::npos);
}

TEST(LogCodec, RejectsMalformedLines) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  // Too few fields.
  EXPECT_EQ(decode_log("icecube-log 1 x\nincrement | 0 | 1\n", registry)
                .error.kind,
            DecodeErrorKind::kBadSyntax);
  // Bad number.
  EXPECT_EQ(
      decode_log("icecube-log 1 x\nincrement | zero | 1 |\n", registry)
          .error.kind,
      DecodeErrorKind::kBadNumber);
  // Missing params for the op.
  EXPECT_EQ(decode_log("icecube-log 1 x\nincrement | 0 | |\n", registry)
                .error.kind,
            DecodeErrorKind::kBadOperands);
}

TEST(LogCodec, StrictNumbersRejectTrailingGarbageAndSigns) {
  // std::stoul-style prefix parsing would silently accept these; the
  // hardened decoder must not.
  const ActionRegistry registry = ActionRegistry::with_builtins();
  EXPECT_EQ(decode_log("icecube-log 1 x\nincrement | 0x | 1 |\n", registry)
                .error.kind,
            DecodeErrorKind::kBadNumber);
  EXPECT_EQ(decode_log("icecube-log 1 x\nincrement | -1 | 1 |\n", registry)
                .error.kind,
            DecodeErrorKind::kBadNumber);
  EXPECT_EQ(decode_log("icecube-log 1 x\nincrement | 0 | 1z |\n", registry)
                .error.kind,
            DecodeErrorKind::kBadNumber);
}

// ---------------------------------------------------------------------------
// CRC framing (format v2).

TEST(LogCodecCrc, EncodeCarriesVerifiableTrailer) {
  const Log log = make_log(
      "bank", {std::make_shared<IncrementAction>(ObjectId(0), 100)});
  const std::string encoded = encode_log(log);
  ASSERT_TRUE(encoded.starts_with("icecube-log 2 "));
  const auto trailer = encoded.rfind("#crc32 ");
  ASSERT_NE(trailer, std::string::npos);
  EXPECT_EQ(Crc32::of(std::string_view(encoded).substr(0, trailer)),
            std::stoul(encoded.substr(trailer + 7, 8), nullptr, 16));
}

TEST(LogCodecCrc, DetectsSingleFlippedByteAsCorruption) {
  const Log log = make_log(
      "bank", {std::make_shared<IncrementAction>(ObjectId(0), 100),
               std::make_shared<DecrementAction>(ObjectId(0), 30)});
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const std::string encoded = encode_log(log);
  // Flip every byte above the trailer in turn: all must be caught, and as
  // transport faults, never as content errors.
  const std::size_t trailer = encoded.rfind("#crc32 ");
  for (std::size_t i = 0; i < trailer; ++i) {
    std::string damaged = encoded;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x20);
    const DecodedLog decoded = decode_log(damaged, registry);
    ASSERT_FALSE(decoded.ok()) << "byte " << i;
    ASSERT_TRUE(decoded.error.transient() ||
                decoded.error.kind == DecodeErrorKind::kBadHeader ||
                decoded.error.kind == DecodeErrorKind::kUnsupportedVersion)
        << "byte " << i << ": " << decoded.error;
  }
}

TEST(LogCodecCrc, DetectsTruncation) {
  const Log log = make_log(
      "bank", {std::make_shared<IncrementAction>(ObjectId(0), 100),
               std::make_shared<DecrementAction>(ObjectId(0), 30)});
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const std::string encoded = encode_log(log);
  // Cut at every length: never a crash, never a *wrong* decode. A cut that
  // only loses the final newline leaves the trailer verifiable — it may
  // decode, but only to exactly the original log; any other cut must fail
  // as transport damage (or an unusable frame), never as a content error.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    const DecodedLog decoded = decode_log(encoded.substr(0, len), registry);
    if (decoded.ok()) {
      EXPECT_EQ(encode_log(*decoded.log), encoded) << "length " << len;
      continue;
    }
    ASSERT_TRUE(decoded.error.transient() ||
                decoded.error.kind == DecodeErrorKind::kBadHeader)
        << "length " << len << ": " << decoded.error;
  }
}

TEST(LogCodecCrc, LegacyV1StillDecodesWithoutTrailer) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const DecodedLog decoded =
      decode_log("icecube-log 1 old\nincrement | 0 | 5 |\n", registry);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(decoded.log->size(), 1u);
}

TEST(LogCodecCrc, V2WithoutTrailerIsTruncated) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const DecodedLog decoded =
      decode_log("icecube-log 2 x\nincrement | 0 | 5 |\n", registry);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.error.kind, DecodeErrorKind::kTruncated);
}

// ---------------------------------------------------------------------------
// Malformed-input coverage for every builtin factory: wrong arity (missing
// targets), missing/bad int params, missing string params. Each case must
// decode to a structured kBadOperands (never crash, never nullptr-deref).

struct FactoryCase {
  const char* name;
  const char* line;  // malformed action line (4 '|' groups)
};

// Names each case (e.g. `buy_no_params`). Without this gtest prints the
// struct's raw bytes, string pointers included, and the test names change
// from run to run.
void PrintTo(const FactoryCase& c, std::ostream* os) { *os << c.name; }

class BuiltinFactoryMalformed : public ::testing::TestWithParam<FactoryCase> {
};

TEST_P(BuiltinFactoryMalformed, RejectsStructurally) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const std::string text =
      std::string("icecube-log 1 x\n") + GetParam().line + "\n";
  const DecodedLog decoded = decode_log(text, registry);
  ASSERT_FALSE(decoded.ok()) << GetParam().line;
  EXPECT_EQ(decoded.error.kind, DecodeErrorKind::kBadOperands)
      << GetParam().line << " -> " << decoded.error;
  EXPECT_EQ(decoded.error.line, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBuiltins, BuiltinFactoryMalformed,
    ::testing::Values(
        // Counter: empty targets / missing amount.
        FactoryCase{"increment_no_target", "increment | | 1 |"},
        FactoryCase{"increment_no_amount", "increment | 0 | |"},
        FactoryCase{"decrement_no_target", "decrement | | 1 |"},
        FactoryCase{"decrement_no_amount", "decrement | 0 | |"},
        // Register.
        FactoryCase{"write_no_target", "write | | 1 |"},
        FactoryCase{"write_no_value", "write | 0 | |"},
        FactoryCase{"read_no_target", "read | | |"},
        // File system: missing path / content.
        FactoryCase{"mkdir_no_target", "mkdir | | | /d"},
        FactoryCase{"mkdir_no_path", "mkdir | 0 | |"},
        FactoryCase{"fswrite_no_content", "fswrite | 0 | | /f"},
        FactoryCase{"fsdelete_no_path", "fsdelete | 0 | |"},
        // Calendar: 'request' needs two targets, two ints, one string.
        FactoryCase{"request_one_target", "request | 0 | 9 11 | label"},
        FactoryCase{"request_no_hours", "request | 0 1 | | label"},
        FactoryCase{"request_no_label", "request | 0 1 | 9 11 |"},
        FactoryCase{"cancel_no_hour", "cancel | 0 | |"},
        // Sys-admin.
        FactoryCase{"upgrade_one_param", "upgrade | 0 | 1 |"},
        FactoryCase{"buy_one_target", "buy | 0 | 1 2 |"},
        FactoryCase{"buy_no_params", "buy | 0 1 | |"},
        FactoryCase{"install_one_param", "install | 0 | 1 |"},
        FactoryCase{"fund_no_amount", "fund | 0 | |"},
        // Jigsaw.
        FactoryCase{"insert_no_piece", "insert | 0 | |"},
        FactoryCase{"insert_strict_no_piece", "insert! | 0 | |"},
        FactoryCase{"join_three_params", "join | 0 | 1 2 3 |"},
        FactoryCase{"remove_no_piece", "remove | 0 | |"},
        // OT text.
        FactoryCase{"tins_no_text", "tins | 0 | 1 5 |"},
        FactoryCase{"tins_one_param", "tins | 0 | 1 | hi"},
        FactoryCase{"tdel_two_params", "tdel | 0 | 1 5 |"},
        // Line file: needs a position and two strings.
        FactoryCase{"setline_one_string", "setline | 0 | 7 | old"},
        FactoryCase{"setline_no_pos", "setline | 0 | | old new"}));

TEST(LogCodec, CustomOpsCanBeRegistered) {
  ActionRegistry registry;  // empty: even built-ins are unknown
  EXPECT_FALSE(registry.knows("increment"));
  registry.register_op("increment",
                       [](const std::vector<ObjectId>& t, const Tag& tag) {
                         return std::make_shared<IncrementAction>(
                             t.at(0), tag.param(0));
                       });
  const DecodedLog decoded =
      decode_log("icecube-log 1 x\nincrement | 0 | 5 |\n", registry);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(decoded.log->at(0).tag(), Tag("increment", {5}));
}

TEST(LogCodec, BlankLinesAreIgnored) {
  const ActionRegistry registry = ActionRegistry::with_builtins();
  const DecodedLog decoded = decode_log(
      "icecube-log 1 x\n\nincrement | 0 | 5 |\n\n", registry);
  ASSERT_TRUE(decoded.ok()) << decoded.error;
  EXPECT_EQ(decoded.log->size(), 1u);
}

}  // namespace
}  // namespace icecube
