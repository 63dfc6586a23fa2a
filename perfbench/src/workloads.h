// The four workloads of the benchmark.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "bench_util.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Tiny inputs, for the self-test.
  bool tiny = false;
  /// Alter one answer before it is checked (self-test of the oracle).
  bool corrupt = false;
  /// Only generate the inputs (and cache the baseline answers), then
  /// exit: run.py does this in a process of its own, so that the heap
  /// that generation leaves behind never counts in peak_rss_mb.
  bool prepare = false;
  std::string data_root = ".bench_data";
  std::string out_dir = ".bench_out";
};

struct Outcome {
  perfbench::Report report;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Printed above the result line.
  std::string notes;
};

/// Part of every data set's cache key; bump it whenever a generator
/// changes what it writes, so that no run reuses inputs of the old form.
constexpr const char* kDataVersion = "v2";

/// Set-up repetitions per run; setup_s is their median. Each generates
/// the inputs afresh into a directory of its own, so setup_s is the full
/// cost of a cold set-up. They run after the measured section, so that
/// the heap they leave behind never counts in peak_rss_mb.
constexpr int kSetupRepetitions = 11;
/// Repetitions of catalog.open_ms in the traced run.
constexpr int kOpenRepetitions = 11;

/// tpch, clickbench and h2o_csv.
Status PrepareBatch(const Options& options);
Status RunBatch(const Options& options, Outcome* outcome);
/// serving.
Status PrepareServing(const Options& options);
Status RunServing(const Options& options, Outcome* outcome);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
