// Tests for the static-constraint machinery: the three-valued lattice, tags,
// and the pairwise constraint builder's three rules (§2.3).
#include <gtest/gtest.h>

#include <memory>

#include "core/constraint.hpp"
#include "core/constraint_builder.hpp"
#include "core/log.hpp"
#include "core/tag.hpp"
#include "test_helpers.hpp"

namespace icecube {
namespace {

using testing::NopAction;
using testing::ScriptedObject;

TEST(Constraint, MostConstrainingIsMax) {
  EXPECT_EQ(most_constraining(Constraint::kSafe, Constraint::kSafe),
            Constraint::kSafe);
  EXPECT_EQ(most_constraining(Constraint::kSafe, Constraint::kMaybe),
            Constraint::kMaybe);
  EXPECT_EQ(most_constraining(Constraint::kMaybe, Constraint::kSafe),
            Constraint::kMaybe);
  EXPECT_EQ(most_constraining(Constraint::kMaybe, Constraint::kUnsafe),
            Constraint::kUnsafe);
  EXPECT_EQ(most_constraining(Constraint::kUnsafe, Constraint::kSafe),
            Constraint::kUnsafe);
}

TEST(Constraint, ToStringNames) {
  EXPECT_EQ(to_string(Constraint::kSafe), "safe");
  EXPECT_EQ(to_string(Constraint::kMaybe), "maybe");
  EXPECT_EQ(to_string(Constraint::kUnsafe), "unsafe");
}

TEST(Tag, DescribeFormatsParams) {
  EXPECT_EQ(Tag("join", {1, 2}).describe(), "join(1,2)");
  EXPECT_EQ(Tag("noop").describe(), "noop()");
  EXPECT_EQ(Tag("fswrite", {}, {"/a/b"}).describe(), "fswrite(/a/b)");
  EXPECT_EQ(Tag("mixed", {7}, {"x"}).describe(), "mixed(7,x)");
}

TEST(Tag, EqualityIsStructural) {
  EXPECT_EQ(Tag("op", {1}), Tag("op", {1}));
  EXPECT_NE(Tag("op", {1}), Tag("op", {2}));
  EXPECT_NE(Tag("op", {1}), Tag("po", {1}));
}

class ConstraintBuilderTest : public ::testing::Test {
 protected:
  /// Universe with two scripted objects whose order method is recorded.
  void SetUp() override {
    auto script = [this](const Action& a, const Action& b,
                         LogRelation rel) -> Constraint {
      ++order_calls_;
      last_rel_ = rel;
      if (a.tag().op == "u" && b.tag().op == "v") return Constraint::kUnsafe;
      if (a.tag().op == "s") return Constraint::kSafe;
      return Constraint::kMaybe;
    };
    x_ = universe_.add(std::make_unique<ScriptedObject>(script));
    y_ = universe_.add(std::make_unique<ScriptedObject>(script));
  }

  Universe universe_;
  ObjectId x_, y_;
  int order_calls_ = 0;
  LogRelation last_rel_ = LogRelation::kSameLog;
};

TEST_F(ConstraintBuilderTest, DisjointTargetsAreSafeWithoutConsultingOrder) {
  const ActionRecord a{std::make_shared<NopAction>("u", std::vector{x_}),
                       LogId(0), 0};
  const ActionRecord b{std::make_shared<NopAction>("v", std::vector{y_}),
                       LogId(1), 0};
  EXPECT_EQ(evaluate_constraint(universe_, a, b), Constraint::kSafe);
  EXPECT_EQ(order_calls_, 0);
}

TEST_F(ConstraintBuilderTest, SameLogForwardOrderIsSafeByDefault) {
  const ActionRecord a{std::make_shared<NopAction>("u", std::vector{x_}),
                       LogId(0), 0};
  const ActionRecord b{std::make_shared<NopAction>("v", std::vector{x_}),
                       LogId(0), 1};
  // a precedes b in the same log: safe, order not consulted.
  EXPECT_EQ(evaluate_constraint(universe_, a, b), Constraint::kSafe);
  EXPECT_EQ(order_calls_, 0);
  // The reversing direction consults the order method (kSameLog).
  EXPECT_EQ(evaluate_constraint(universe_, b, a), Constraint::kMaybe);
  EXPECT_EQ(order_calls_, 1);
  EXPECT_EQ(last_rel_, LogRelation::kSameLog);
}

TEST_F(ConstraintBuilderTest, AcrossLogsConsultsOrderWithAcrossRelation) {
  const ActionRecord a{std::make_shared<NopAction>("u", std::vector{x_}),
                       LogId(0), 0};
  const ActionRecord b{std::make_shared<NopAction>("v", std::vector{x_}),
                       LogId(1), 0};
  EXPECT_EQ(evaluate_constraint(universe_, a, b), Constraint::kUnsafe);
  EXPECT_EQ(last_rel_, LogRelation::kAcrossLogs);
}

TEST_F(ConstraintBuilderTest, MultiTargetTakesMostConstrainingValue) {
  // Object x says safe (op "s"); object y's script also runs — both return
  // the same value for this pair, so craft objects with different scripts.
  Universe u;
  const ObjectId safe_obj = u.add(std::make_unique<ScriptedObject>(
      [](const Action&, const Action&, LogRelation) {
        return Constraint::kSafe;
      }));
  const ObjectId unsafe_obj = u.add(std::make_unique<ScriptedObject>(
      [](const Action&, const Action&, LogRelation) {
        return Constraint::kUnsafe;
      }));
  const ActionRecord a{
      std::make_shared<NopAction>("a", std::vector{safe_obj, unsafe_obj}),
      LogId(0), 0};
  const ActionRecord b{
      std::make_shared<NopAction>("b", std::vector{safe_obj, unsafe_obj}),
      LogId(1), 0};
  EXPECT_EQ(evaluate_constraint(u, a, b), Constraint::kUnsafe);
}

TEST_F(ConstraintBuilderTest, OnlyCommonTargetsAreConsulted) {
  // a targets {x}, b targets {x, y}: only x's order runs.
  int x_calls = 0, y_calls = 0;
  Universe u;
  const ObjectId xo = u.add(std::make_unique<ScriptedObject>(
      [&x_calls](const Action&, const Action&, LogRelation) {
        ++x_calls;
        return Constraint::kMaybe;
      }));
  const ObjectId yo = u.add(std::make_unique<ScriptedObject>(
      [&y_calls](const Action&, const Action&, LogRelation) {
        ++y_calls;
        return Constraint::kUnsafe;
      }));
  const ActionRecord a{std::make_shared<NopAction>("a", std::vector{xo}),
                       LogId(0), 0};
  const ActionRecord b{std::make_shared<NopAction>("b", std::vector{xo, yo}),
                       LogId(1), 0};
  EXPECT_EQ(evaluate_constraint(u, a, b), Constraint::kMaybe);
  EXPECT_EQ(x_calls, 1);
  EXPECT_EQ(y_calls, 0);
}

TEST_F(ConstraintBuilderTest, BuildsFullMatrix) {
  Log l0("l0");
  l0.append(std::make_shared<NopAction>("u", std::vector{x_}));
  l0.append(std::make_shared<NopAction>("v", std::vector{x_}));
  Log l1("l1");
  l1.append(std::make_shared<NopAction>("v", std::vector{x_}));

  const auto records = flatten({l0, l1});
  ASSERT_EQ(records.size(), 3u);
  ConstraintMatrix m;
  (void)IncrementalConstraintGraph::build(universe_, records, &m);
  EXPECT_EQ(m.size(), 3u);
  // In-log forward: safe.
  EXPECT_EQ(m.at(ActionId(0), ActionId(1)), Constraint::kSafe);
  // u before v across logs: unsafe per script.
  EXPECT_EQ(m.at(ActionId(0), ActionId(2)), Constraint::kUnsafe);
  // v before v across logs: maybe per script.
  EXPECT_EQ(m.at(ActionId(1), ActionId(2)), Constraint::kMaybe);
}

TEST(FlattenTest, PreservesLogOrderAndProvenance) {
  Universe u;
  const ObjectId x = u.add(std::make_unique<ScriptedObject>());
  Log a("a");
  a.append(std::make_shared<NopAction>("p", std::vector{x}));
  a.append(std::make_shared<NopAction>("q", std::vector{x}));
  Log b("b");
  b.append(std::make_shared<NopAction>("r", std::vector{x}));

  const auto records = flatten({a, b});
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].log, LogId(0));
  EXPECT_EQ(records[0].position, 0u);
  EXPECT_EQ(records[1].log, LogId(0));
  EXPECT_EQ(records[1].position, 1u);
  EXPECT_EQ(records[2].log, LogId(1));
  EXPECT_TRUE(records[0].before_in_log(records[1]));
  EXPECT_FALSE(records[1].before_in_log(records[0]));
  EXPECT_FALSE(records[0].before_in_log(records[2]));
  EXPECT_TRUE(records[0].same_log(records[1]));
  EXPECT_FALSE(records[0].same_log(records[2]));
}

TEST(RenderMatrixTest, ContainsLabelsAndValues) {
  ConstraintMatrix m(2);
  m.set(ActionId(0), ActionId(1), Constraint::kUnsafe);
  m.set(ActionId(1), ActionId(0), Constraint::kSafe);
  const std::string rendered = render_matrix(m, {"alpha", "beta"});
  EXPECT_NE(rendered.find("alpha"), std::string::npos);
  EXPECT_NE(rendered.find("beta"), std::string::npos);
  EXPECT_NE(rendered.find("unsafe"), std::string::npos);
  EXPECT_NE(rendered.find("safe"), std::string::npos);
}

}  // namespace
}  // namespace icecube
