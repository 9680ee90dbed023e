// Shared fixtures for the IceCube test suite.
#pragma once

#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/action.hpp"
#include "core/log.hpp"
#include "core/options.hpp"
#include "core/policy.hpp"
#include "core/universe.hpp"
#include "jigsaw/board.hpp"

// gtest printers for the enums that parameterise tests. ctest names each
// parameterised case by its printed parameter; without these, gtest prints
// an enum as a raw byte dump such as `1-byte object <02>`.
namespace icecube {

inline void PrintTo(Heuristic h, std::ostream* os) { *os << to_string(h); }

inline void PrintTo(FailureMode m, std::ostream* os) { *os << to_string(m); }

}  // namespace icecube

namespace icecube::jigsaw {

inline void PrintTo(Board::OrderCase c, std::ostream* os) {
  switch (c) {
    case Board::OrderCase::kUnconstrained:
      *os << "Unconstrained";
      return;
    case Board::OrderCase::kSemantic:
      *os << "Semantic";
      return;
    case Board::OrderCase::kKeepLogOrder:
      *os << "KeepLogOrder";
      return;
    case Board::OrderCase::kKeepJoinOrder:
      *os << "KeepJoinOrder";
      return;
    case Board::OrderCase::kAdjacency:
      *os << "Adjacency";
      return;
  }
  *os << "?";
}

}  // namespace icecube::jigsaw

namespace icecube::testing {

/// Shared object whose `order` method is a std::function — lets tests script
/// arbitrary static-constraint tables without defining new types.
class ScriptedObject final : public SharedObject {
 public:
  using OrderFn =
      std::function<Constraint(const Action&, const Action&, LogRelation)>;

  explicit ScriptedObject(OrderFn fn = nullptr) : fn_(std::move(fn)) {}

  [[nodiscard]] std::unique_ptr<SharedObject> clone() const override {
    return std::make_unique<ScriptedObject>(*this);
  }
  [[nodiscard]] Constraint order(const Action& a, const Action& b,
                                 LogRelation rel) const override {
    return fn_ ? fn_(a, b, rel) : Constraint::kMaybe;
  }
  [[nodiscard]] std::string describe() const override { return "scripted"; }

 private:
  OrderFn fn_;
};

/// Action that always succeeds and does nothing; identified by its tag op.
class NopAction final : public SimpleAction {
 public:
  NopAction(std::string op, std::vector<ObjectId> targets)
      : SimpleAction(Tag(std::move(op)), std::move(targets)) {}

  [[nodiscard]] bool precondition(const Universe&) const override {
    return true;
  }
  bool execute(Universe&) const override { return true; }
};

/// Stops the whole search at the first complete schedule. Stateless, so it
/// is safe under ReconcilerOptions::threads != 1.
class StopAtFirstComplete final : public Policy {
 public:
  bool on_outcome(const Outcome& outcome) override {
    return !outcome.complete;
  }
};

/// Builds a log from a list of actions.
inline Log make_log(std::string name, std::vector<ActionPtr> actions) {
  Log log(std::move(name));
  for (auto& a : actions) log.append(std::move(a));
  return log;
}

}  // namespace icecube::testing
