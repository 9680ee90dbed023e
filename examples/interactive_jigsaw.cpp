// Interactive reconciliation (§2's pipeline / §4.3's "immediate interactive
// feedback"): the policy's `on_outcome` hook sees every outcome as the
// search records it, shows each new incumbent board, and stops the search
// once the board is solved, as an interactive application would. (A GUI
// runs `Reconciler::run()` on a worker thread and reads the incumbent the
// same way.)
//
//   $ ./interactive_jigsaw
#include <cstdio>
#include <limits>

#include "core/reconciler.hpp"
#include "jigsaw/experiment.hpp"

using namespace icecube;
using namespace icecube::jigsaw;

namespace {

/// Prints every new incumbent and stops once all pieces are correct.
class InteractivePolicy final : public JigsawPolicy {
 public:
  explicit InteractivePolicy(ObjectId board_id)
      : JigsawPolicy(board_id), board_id_(board_id) {}

  bool on_outcome(const Outcome& outcome) override {
    ++seen_;
    const Board& board = outcome.final_state.as<Board>(board_id_);
    const int total = board.rows() * board.cols();
    if (outcome.cost < best_cost_) {
      best_cost_ = outcome.cost;
      std::printf("outcome %3llu: incumbent %2d/%d correct pieces\n",
                  static_cast<unsigned long long>(seen_),
                  board.correct_pieces(), total);
    }
    return board.correct_pieces() < total;
  }

 private:
  ObjectId board_id_;
  std::uint64_t seen_ = 0;
  double best_cost_ = std::numeric_limits<double>::infinity();
};

}  // namespace

int main() {
  using K = PlayerSpec::Kind;
  const Problem problem =
      make_problem(4, 4, Board::OrderCase::kKeepLogOrder,
                   {{K::kU1, 7}, {K::kU2, 12}});

  ReconcilerOptions opts;
  opts.heuristic = Heuristic::kAll;  // the paper's 38k-schedule sweep
  InteractivePolicy policy(problem.board_id);
  Reconciler reconciler(problem.initial, problem.logs, opts, &policy);

  std::printf("=== interactive jigsaw reconciliation ===\n\n");
  const auto result = reconciler.run();
  std::printf("\nstopped after %llu schedule(s); final board:\n%s",
              static_cast<unsigned long long>(
                  result.stats.schedules_explored()),
              result.best()
                  .final_state.as<Board>(problem.board_id)
                  .render()
                  .c_str());
  std::printf(
      "\nThe optimum arrived at once — the paper's observation that H=All\n"
      "finds the best solution 'after two sequences' and only then sweeps\n"
      "the remaining tens of thousands. An interactive application shows it\n"
      "and stops there.\n");
  return 0;
}
