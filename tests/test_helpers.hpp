// Shared fixtures for the IceCube test suite.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/action.hpp"
#include "core/log.hpp"
#include "core/policy.hpp"
#include "core/universe.hpp"

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
