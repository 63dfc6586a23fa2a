// Per-layer measurements, taken from outside the engine: the split
// planning calls of SessionContext, the executed plan's operator
// metrics, and direct timings of each module's public kernels on the
// workload's own data.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <map>
#include <string>
#include <vector>

#include "arrow/scalar.h"
#include "bench_util.h"
#include "compute/compare.h"
#include "core/session_context.h"

namespace perfbench {

/// Totals of the traced passes over a set of queries.
struct PhaseTotals {
  /// Passes over the query set; execution totals are reported per pass.
  int passes = 1;
  int64_t queries = 0;
  double parse_us = 0;
  double logical_us = 0;
  double optimize_us = 0;
  double physical_us = 0;
  double execute_ms = 0;
  double wall_ms = 0;  ///< the whole traced path, metrics snapshot included

  // Operator metrics summed over every executed plan.
  struct Op {
    double self_ms = 0;
    int64_t rows = 0;
  };
  std::map<std::string, Op> ops;
  int64_t rf_checked_rows = 0;
  int64_t rf_pruned_rows = 0;
  double queue_wait_ms = 0;
  int64_t spill_bytes = 0;

  void AddPlanMetrics(const fusion::physical::PlanMetricsNode& node);
  /// Adds the sql/logical/optimizer/physical metrics: planning phases
  /// as means per query, execution and operator totals per pass.
  void Report(perfbench::Report* report) const;
};

/// Runs `sql` through Parser::Parse, then CreateLogicalPlan ->
/// OptimizePlan -> CreatePhysicalPlan -> ExecutePhysical ->
/// CollectMetrics, each inside a span under `parent`.
Result<std::vector<fusion::RecordBatchPtr>> RunTraced(fusion::core::SessionContext* ctx,
                                                      const std::string& sql,
                                                      Tracer* tracer, int parent,
                                                      int64_t op, PhaseTotals* totals);

/// Inputs for the compute / row / arrow kernel timings, all drawn from
/// the workload's own data.
struct KernelInputs {
  std::vector<fusion::RecordBatchPtr> batches;  ///< dense columns
  int filter_col = -1;
  fusion::compute::CompareOp filter_op = fusion::compute::CompareOp::kGt;
  fusion::Scalar filter_value;
  std::vector<int> hash_cols;   ///< group and join keys
  std::vector<int> group_cols;  ///< high-cardinality group keys
  std::vector<int> sort_cols;   ///< sort / top-K keys
  /// Batches for IPC serde: query results and put uploads.
  std::vector<fusion::RecordBatchPtr> ipc_batches;
};

/// Loads `sql`'s result as dense batches (dictionary columns densified).
Result<std::vector<fusion::RecordBatchPtr>> LoadDense(fusion::core::SessionContext* ctx,
                                                      const std::string& sql);

/// compute.*, row.encode_ns_per_row and arrow.ipc_* metrics.
Status TimeKernels(const KernelInputs& in, perfbench::Report* report);

/// format.fpq_decode_ms / _mb_s: ReadRowGroup over every row group of
/// `files`, restricted to the columns whose names appear in `sql_text`.
Status TimeFpqDecode(const std::vector<std::string>& files, const std::string& sql_text,
                     perfbench::Report* report);

/// format.csv_parse_ms / _mb_s: csv::ReadFile over `path` (empty path
/// reports zeros).
Status TimeCsvParse(const std::string& path, perfbench::Report* report);

/// Scheduler counters, read before and after the measured section.
struct SchedulerSnapshot {
  int64_t total_tasks = 0;
  int64_t admission_queued_total = 0;
  static SchedulerSnapshot Take(const fusion::exec::QueryScheduler& s);
};
/// exec.* metrics; exec.total_tasks is divided by `passes`.
void ReportExec(const fusion::exec::RuntimeEnv& env, const SchedulerSnapshot& before,
                const SchedulerSnapshot& after,
                const fusion::exec::BufferCache::Stats& buffer_before, int passes,
                perfbench::Report* report);

/// core.plan_cache_* from the session's counters, as deltas.
struct PlanCacheSnapshot {
  int64_t hits = 0, misses = 0, invalidations = 0;
  static PlanCacheSnapshot Take(const fusion::exec::RuntimeEnv& env);
};
void ReportPlanCache(const PlanCacheSnapshot& before, const PlanCacheSnapshot& after,
                     perfbench::Report* report);

/// The operators whose self time and rows the traced run reports.
const std::vector<std::string>& ReportedOperators();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
