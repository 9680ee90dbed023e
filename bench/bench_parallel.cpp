// M3: parallel cutset search — wall-clock scaling with worker threads.
//
// The jigsaw experiments are acyclic (one empty proper cutset), so they
// cannot exercise cutset-level parallelism. This bench builds a workload
// whose dependence graph has C *independent* 2-cycles — each cycle is a
// pair of mutually-unsafe cross-log actions — so the proper-cutset
// enumeration yields 2^C minimal hitting sets (capped at
// kMaxCutsets). Each cutset's sub-search then interleaves
// two order-preserved chains of F "free" actions, giving C(2F, F) complete
// schedules per cutset: enough uniform work per cutset for the per-cutset
// fan-out to show.
//
// Results are bit-for-bit identical across thread counts (the merge is
// deterministic — DESIGN.md §8); the bench asserts that while it measures.
// On a single-core container the sweep still runs and reports ~1.0x; the
// speedup column is meaningful on multi-core hardware only.
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/reconciler.hpp"
#include "util/timer.hpp"

namespace {

using namespace icecube;

/// Single shared object whose order table is driven entirely by tags:
///  - cyc(i, side): mutually unsafe with the same cycle's other side
///    (creating the 2-cycle); ascending cycle order enforced otherwise.
///  - free(log, pos): same-log reversal unsafe (log order preserved),
///    cross-log maybe (every interleaving explored under H=All).
///  - any free before any cyc is safe; cyc before free is unsafe, which
///    pins the cycle survivors after the frees so they add no branching.
class LockstepObject final : public SharedObject {
 public:
  [[nodiscard]] std::unique_ptr<SharedObject> clone() const override {
    return std::make_unique<LockstepObject>(*this);
  }

  [[nodiscard]] Constraint order(const Action& a, const Action& b,
                                 LogRelation rel) const override {
    const Tag& ta = a.tag();
    const Tag& tb = b.tag();
    const bool a_cyc = ta.op == "cyc";
    const bool b_cyc = tb.op == "cyc";
    if (a_cyc && b_cyc) {
      if (ta.param(0) == tb.param(0)) return Constraint::kUnsafe;  // 2-cycle
      return ta.param(0) < tb.param(0) ? Constraint::kSafe
                                       : Constraint::kUnsafe;
    }
    if (a_cyc != b_cyc) {
      return b_cyc ? Constraint::kSafe : Constraint::kUnsafe;
    }
    if (rel == LogRelation::kSameLog) return Constraint::kUnsafe;
    return Constraint::kMaybe;
  }

  [[nodiscard]] std::string describe() const override { return "lockstep"; }
};

class NopAction final : public SimpleAction {
 public:
  NopAction(Tag tag, ObjectId target) : SimpleAction(std::move(tag), {target}) {}
  [[nodiscard]] bool precondition(const Universe&) const override {
    return true;
  }
  bool execute(Universe&) const override { return true; }
};

struct Workload {
  Universe initial;
  std::vector<Log> logs;
  std::size_t n_actions = 0;
};

Workload make_workload(int cycles, int frees_per_log) {
  Workload w;
  const ObjectId obj = w.initial.add(std::make_unique<LockstepObject>());
  Log a("site-a");
  Log b("site-b");
  for (int f = 0; f < frees_per_log; ++f) {
    a.append(std::make_shared<NopAction>(Tag("free", {0, f}), obj));
    b.append(std::make_shared<NopAction>(Tag("free", {1, f}), obj));
  }
  for (int c = 0; c < cycles; ++c) {
    a.append(std::make_shared<NopAction>(Tag("cyc", {c, 0}), obj));
    b.append(std::make_shared<NopAction>(Tag("cyc", {c, 1}), obj));
  }
  w.n_actions = a.size() + b.size();
  w.logs.push_back(std::move(a));
  w.logs.push_back(std::move(b));
  return w;
}

struct Measured {
  double wall = 0.0;
  std::uint64_t schedules = 0;
  std::size_t cutsets = 0;
  double best_cost = 0.0;
  std::string best_schedule;
  SearchStats stats;
};

Measured run_once(const Workload& w, std::size_t threads) {
  ReconcilerOptions options;
  options.heuristic = Heuristic::kAll;
  options.limits.max_schedules = 50'000'000;  // never the binding limit here
  options.threads = threads;

  const Stopwatch wall;
  Reconciler r(w.initial, w.logs, options);
  const ReconcileResult result = r.run();

  Measured m;
  m.wall = wall.seconds();
  m.schedules = result.stats.schedules_explored();
  m.cutsets = result.cutsets.size();
  m.best_cost = result.best().cost;
  m.best_schedule = r.describe_schedule(result.best().schedule);
  m.stats = result.stats;
  for (ActionId skip : result.best().skipped) {
    m.best_schedule += " -" + std::to_string(skip.index());
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonSink json(argc, argv);

  std::printf("=== M3: parallel cutset search (speedup vs --threads 1) ===\n\n");
  std::printf("%-28s %8s %8s %8s %10s %9s %8s\n", "workload", "actions",
              "threads", "cutsets", "schedules", "time(s)", "speedup");

  for (const auto& [cycles, frees] : {std::pair{6, 6}, std::pair{6, 7}}) {
    const Workload w = make_workload(cycles, frees);
    char name[64];
    std::snprintf(name, sizeof name, "lockstep c=%d f=%d", cycles, frees);

    double base_wall = 0.0;
    Measured reference;
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
      const Measured m = run_once(w, threads);
      if (threads == 1) {
        base_wall = m.wall;
        reference = m;
      } else if (m.schedules != reference.schedules ||
                 m.best_cost != reference.best_cost ||
                 m.best_schedule != reference.best_schedule) {
        std::fprintf(stderr,
                     "FATAL: threads=%zu diverged from the sequential "
                     "result on %s\n",
                     threads, name);
        return 1;
      }
      std::printf("%-28s %8zu %8zu %8zu %10llu %9.3f %7.2fx\n", name,
                  w.n_actions, threads, m.cutsets,
                  static_cast<unsigned long long>(m.schedules), m.wall,
                  base_wall > 0 ? base_wall / m.wall : 0.0);
      json.record(name, w.n_actions, threads, m.wall, m.stats, m.best_cost);
    }
    std::printf("\n");
  }

  std::printf(
      "Identical schedules, costs and explored counts at every thread\n"
      "count (asserted above); speedup is the only thing that varies.\n");
  return 0;
}
