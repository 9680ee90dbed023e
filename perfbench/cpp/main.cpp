// perfbench — runs one workload of the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Prints a summary on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics, traced runs the per-layer ones. Exit
// status 0 when a result was printed, 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cpp/workloads.hpp"

namespace perfbench {

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "interactive") return make_interactive();
  if (name == "bulk") return make_bulk();
  if (name == "live") return make_live();
  if (name == "anti-entropy") return make_anti_entropy();
  return nullptr;
}

}  // namespace perfbench

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload interactive|bulk|live|anti-entropy "
               "--seed N --seconds S --trace 0|1 [--out DIR]\n",
               argv0);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Clock::time_point process_start = perfbench::Clock::now();
  perfbench::RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    std::uint64_t v = 0;
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0 && parse_u64(value, v)) {
      options.seed = v;
    } else if (std::strcmp(flag, "--seconds") == 0 && parse_u64(value, v) &&
               v > 0) {
      options.seconds = static_cast<double>(v);
    } else if (std::strcmp(flag, "--trace") == 0 && parse_u64(value, v) &&
               v <= 1) {
      options.trace = v == 1;
    } else if (std::strcmp(flag, "--out") == 0) {
      options.out_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::make_workload(options.workload);
  if (!workload) return usage(argv[0]);
  return perfbench::run_workload(*workload, options, process_start);
}
