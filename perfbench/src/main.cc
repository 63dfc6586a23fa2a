// Benchmark runner: one workload, one seed, one run. Prints the
// metrics as a table, then one JSON result line.
//
//   perfbench_runner --workload tpch|clickbench|h2o_csv|serving
//       --seed N --seconds S --trace 0|1 [--tiny] [--corrupt]
//       [--data-dir DIR] [--out-dir DIR]
//   perfbench_runner --prepare --workload W --seed N [--tiny] [--data-dir DIR]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload tpch|clickbench|h2o_csv|serving --seed N "
               "--seconds S --trace 0|1 [--tiny] [--corrupt] [--data-dir DIR] "
               "[--out-dir DIR] [--prepare]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--data-dir" && has_value) {
      o.data_root = argv[++i];
    } else if (arg == "--out-dir" && has_value) {
      o.out_dir = argv[++i];
    } else if (arg == "--tiny") {
      o.tiny = true;
    } else if (arg == "--corrupt") {
      o.corrupt = true;
    } else if (arg == "--prepare") {
      o.prepare = true;
    } else {
      return Usage(argv[0]);
    }
  }
  const bool batch =
      o.workload == "tpch" || o.workload == "clickbench" || o.workload == "h2o_csv";
  if ((!batch && o.workload != "serving") || o.seconds <= 0) return Usage(argv[0]);

  if (o.prepare) {
    fusion::Status st = batch ? perfbench::PrepareBatch(o) : perfbench::PrepareServing(o);
    if (!st.ok()) std::fprintf(stderr, "%s: %s\n", o.workload.c_str(), st.ToString().c_str());
    return st.ok() ? 0 : 1;
  }

  perfbench::Outcome outcome;
  fusion::Status st = batch ? perfbench::RunBatch(o, &outcome)
                            : perfbench::RunServing(o, &outcome);
  std::fputs(outcome.notes.c_str(), stdout);
  if (!st.ok()) {
    std::fprintf(stderr, "%s: %s\n", o.workload.c_str(), st.ToString().c_str());
    return 1;
  }
  std::printf("%s %s seed %llu:\n%s", o.workload.c_str(), o.trace ? "traced" : "untraced",
              static_cast<unsigned long long>(o.seed), outcome.report.Table().c_str());
  std::printf("%s\n", outcome.report
                          .Json(outcome.failed == 0, outcome.attempted, outcome.failed)
                          .c_str());
  return 0;
}
