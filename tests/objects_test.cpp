// Tests for the register and counter substrates: state transitions, dynamic
// constraints, and the order tables of Figures 2–5 (as interpreted in
// DESIGN.md §5.1).
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "objects/counter.hpp"
#include "objects/rw_register.hpp"

namespace icecube {
namespace {

// ---------------------------------------------------------------------------
// RwRegister state and actions.

TEST(RwRegister, WriteUpdatesValue) {
  Universe u;
  const ObjectId reg = u.add(std::make_unique<RwRegister>(1));
  const WriteAction write(reg, 9);
  EXPECT_TRUE(write.precondition(u));
  EXPECT_TRUE(write.execute(u));
  EXPECT_EQ(u.as<RwRegister>(reg).value(), 9);
}

TEST(RwRegister, CloneIsDeep) {
  RwRegister reg(5);
  auto copy = reg.clone();
  reg.write(6);
  EXPECT_EQ(dynamic_cast<RwRegister&>(*copy).value(), 5);
}

TEST(RwRegister, ExpectedReadChecksValue) {
  Universe u;
  const ObjectId reg = u.add(std::make_unique<RwRegister>(10));
  EXPECT_TRUE(ReadAction(reg, 10).precondition(u));
  EXPECT_FALSE(ReadAction(reg, 11).precondition(u));
  EXPECT_TRUE(ReadAction(reg).precondition(u));  // unconditional read
}

// Figure 2 — read/write order across logs. order(a, b): may a precede b?
struct RegisterOrderCase {
  const char* a;
  const char* b;
  LogRelation rel;
  Constraint expected;
};

// Names each case by its action pair (e.g. `read_write`). Without this gtest
// prints the struct's raw bytes, pointers included, and the test names
// change from run to run.
void PrintTo(const RegisterOrderCase& c, std::ostream* os) {
  *os << c.a << '_' << c.b;
}

class RegisterOrderTest
    : public ::testing::TestWithParam<RegisterOrderCase> {};

TEST_P(RegisterOrderTest, MatchesFigure) {
  const auto& p = GetParam();
  Universe u;
  const ObjectId reg_id = u.add(std::make_unique<RwRegister>(0));
  const RwRegister& reg = u.as<RwRegister>(reg_id);

  auto make = [&](const char* kind) -> std::shared_ptr<Action> {
    if (std::string(kind) == "write")
      return std::make_shared<WriteAction>(reg_id, 1);
    return std::make_shared<ReadAction>(reg_id);
  };
  EXPECT_EQ(reg.order(*make(p.a), *make(p.b), p.rel), p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Figure2AcrossLogs, RegisterOrderTest,
    ::testing::Values(
        RegisterOrderCase{"read", "read", LogRelation::kAcrossLogs,
                          Constraint::kSafe},
        // "allow a read to be ordered before an unrelated write"
        RegisterOrderCase{"read", "write", LogRelation::kAcrossLogs,
                          Constraint::kSafe},
        // a foreign write must not slip before a concurrent read
        RegisterOrderCase{"write", "read", LogRelation::kAcrossLogs,
                          Constraint::kUnsafe},
        // two concurrent writes: order matters, dynamic conflict
        RegisterOrderCase{"write", "write", LogRelation::kAcrossLogs,
                          Constraint::kMaybe}));

INSTANTIATE_TEST_SUITE_P(
    Figure4WithinLog, RegisterOrderTest,
    ::testing::Values(
        RegisterOrderCase{"read", "read", LogRelation::kSameLog,
                          Constraint::kSafe},
        RegisterOrderCase{"write", "write", LogRelation::kSameLog,
                          Constraint::kSafe},
        // swapping a read past a write changes the value returned
        RegisterOrderCase{"read", "write", LogRelation::kSameLog,
                          Constraint::kUnsafe},
        RegisterOrderCase{"write", "read", LogRelation::kSameLog,
                          Constraint::kUnsafe}));

// ---------------------------------------------------------------------------
// Counter state and actions.

TEST(Counter, ApplyRespectsNonNegativity) {
  Counter c(5);
  EXPECT_TRUE(c.apply(-5));
  EXPECT_EQ(c.value(), 0);
  EXPECT_FALSE(c.apply(-1));
  EXPECT_EQ(c.value(), 0);  // unchanged after the refused update
  EXPECT_TRUE(c.apply(3));
  EXPECT_EQ(c.value(), 3);
}

TEST(Counter, DecrementPreconditionGuardsInvariant) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(2));
  EXPECT_TRUE(DecrementAction(c, 2).precondition(u));
  EXPECT_FALSE(DecrementAction(c, 3).precondition(u));
}

TEST(Counter, IncrementThenDecrementRoundTrips) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(0));
  EXPECT_TRUE(IncrementAction(c, 7).execute(u));
  EXPECT_TRUE(DecrementAction(c, 7).execute(u));
  EXPECT_EQ(u.as<Counter>(c).value(), 0);
}

struct CounterOrderCase {
  const char* a;
  const char* b;
  LogRelation rel;
  Constraint expected;
};

void PrintTo(const CounterOrderCase& c, std::ostream* os) {
  *os << c.a << '_' << c.b;
}

class CounterOrderTest : public ::testing::TestWithParam<CounterOrderCase> {};

TEST_P(CounterOrderTest, MatchesFigure) {
  const auto& p = GetParam();
  Universe u;
  const ObjectId c_id = u.add(std::make_unique<Counter>(0));
  const Counter& c = u.as<Counter>(c_id);

  auto make = [&](const char* kind) -> std::shared_ptr<Action> {
    if (std::string(kind) == "inc")
      return std::make_shared<IncrementAction>(c_id, 1);
    return std::make_shared<DecrementAction>(c_id, 1);
  };
  EXPECT_EQ(c.order(*make(p.a), *make(p.b), p.rel), p.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Figure3AcrossLogs, CounterOrderTest,
    ::testing::Values(
        // "increments commute with one another"
        CounterOrderCase{"inc", "inc", LogRelation::kAcrossLogs,
                         Constraint::kSafe},
        // "orders increments before decrements"
        CounterOrderCase{"inc", "dec", LogRelation::kAcrossLogs,
                         Constraint::kSafe},
        // a decrement may precede an increment modulo the dynamic check
        CounterOrderCase{"dec", "inc", LogRelation::kAcrossLogs,
                         Constraint::kMaybe},
        // "decrements commute ... subject to the dynamic constraint" — the
        // dynamic check means `maybe`, not `safe`: two decrements that each
        // fit the balance alone can jointly overdraw it (see
        // DecDecAcrossLogsIsNotSafe below for the witness the auditor found)
        CounterOrderCase{"dec", "dec", LogRelation::kAcrossLogs,
                         Constraint::kMaybe}));

INSTANTIATE_TEST_SUITE_P(
    Figure5WithinLog, CounterOrderTest,
    ::testing::Values(
        CounterOrderCase{"inc", "inc", LogRelation::kSameLog,
                         Constraint::kSafe},
        CounterOrderCase{"inc", "dec", LogRelation::kSameLog,
                         Constraint::kSafe},
        // pulling a decrement earlier could break an intermediate state
        CounterOrderCase{"dec", "inc", LogRelation::kSameLog,
                         Constraint::kUnsafe},
        CounterOrderCase{"dec", "dec", LogRelation::kSameLog,
                         Constraint::kSafe}));

// Regression for the witness the constraint soundness auditor found
// (UNSOUND_SAFE): decrements that each fit the value alone can jointly
// overdraw it, so dec/dec across logs must not claim `safe`. Witness:
// value=5 — dec(5) alone succeeds, but dec(3) immediately followed by
// dec(5) fails.
TEST(Counter, DecDecAcrossLogsIsNotSafe) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(5));
  const DecrementAction a(c, 3);
  const DecrementAction b(c, 5);
  EXPECT_TRUE(b.precondition(u));  // b alone succeeds from the witness state
  Universe chain = u;
  ASSERT_TRUE(a.precondition(chain));
  ASSERT_TRUE(a.execute(chain));
  EXPECT_FALSE(b.precondition(chain));  // the chain a-then-b fails
  EXPECT_EQ(u.as<Counter>(c).order(a, b, LogRelation::kAcrossLogs),
            Constraint::kMaybe);
}

TEST(Counter, CloneIsDeep) {
  Counter c(4);
  auto copy = c.clone();
  ASSERT_TRUE(c.apply(-4));
  EXPECT_EQ(dynamic_cast<Counter&>(*copy).value(), 4);
}

TEST(UniverseTest, CopyClonesObjects) {
  Universe u;
  const ObjectId c = u.add(std::make_unique<Counter>(1));
  Universe copy = u;
  ASSERT_TRUE(u.as<Counter>(c).apply(10));
  EXPECT_EQ(copy.as<Counter>(c).value(), 1);
  EXPECT_EQ(u.as<Counter>(c).value(), 11);
}

TEST(UniverseTest, FingerprintDistinguishesStates) {
  Universe a, b;
  const ObjectId ca = a.add(std::make_unique<Counter>(1));
  (void)b.add(std::make_unique<Counter>(1));
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_TRUE(a.as<Counter>(ca).apply(1));
  EXPECT_NE(a.fingerprint(), b.fingerprint());
}

}  // namespace
}  // namespace icecube
