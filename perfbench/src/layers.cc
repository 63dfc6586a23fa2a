#include "layers.h"

#include <algorithm>
#include <cctype>

#include "arrow/array.h"
#include "arrow/ipc.h"
#include "compute/group_table.h"
#include "compute/hash_kernels.h"
#include "compute/selection.h"
#include "format/csv.h"
#include "format/fpq.h"
#include "physical/execution_plan.h"
#include "row/row_format.h"
#include "sql/parser.h"

namespace perfbench {

using namespace fusion;  // NOLINT

const std::vector<std::string>& ReportedOperators() {
  static const std::vector<std::string> kOps = {
      "ScanExec",         "FilterExec",  "ProjectionExec",
      "HashAggregateExec", "PartitionedAggregateExec", "HashJoinExec",
      "SortExec",         "RepartitionExec", "CoalescePartitionsExec"};
  return kOps;
}

void PhaseTotals::AddPlanMetrics(const physical::PlanMetricsNode& node) {
  Op& op = ops[node.name];
  op.self_ms += static_cast<double>(node.elapsed_compute_ns) * 1e-6;
  op.rows += node.output_rows;
  rf_checked_rows += node.rf_checked_rows;
  rf_pruned_rows += node.rf_pruned_rows;
  queue_wait_ms += static_cast<double>(node.queue_wait_ns) * 1e-6;
  spill_bytes += node.spill_bytes;
  for (const auto& child : node.children) AddPlanMetrics(child);
}

void PhaseTotals::Report(perfbench::Report* report) const {
  const double n = std::max<double>(static_cast<double>(queries), 1);
  const double p = std::max(passes, 1);
  report->Add("sql.parse_us", parse_us / n, "us");
  report->Add("logical.plan_us", logical_us / n, "us");
  report->Add("optimizer.optimize_us", optimize_us / n, "us");
  report->Add("physical.plan_us", physical_us / n, "us");
  report->Add("physical.execute_ms", execute_ms / p, "ms");
  for (const auto& name : ReportedOperators()) {
    auto it = ops.find(name);
    report->Add("physical." + name + ".self_ms",
                it == ops.end() ? 0 : it->second.self_ms / p, "ms");
    report->Add("physical." + name + ".rows",
                it == ops.end() ? 0 : static_cast<double>(it->second.rows) / p, "count");
  }
  report->Add("physical.rf_pruned_share",
              rf_checked_rows > 0 ? static_cast<double>(rf_pruned_rows) /
                                        static_cast<double>(rf_checked_rows)
                                  : 0,
              "ratio");
  report->Add("physical.queue_wait_ms", queue_wait_ms / p, "ms");
  report->Add("physical.spill_bytes", static_cast<double>(spill_bytes) / p, "bytes");
}

Result<std::vector<RecordBatchPtr>> RunTraced(core::SessionContext* ctx,
                                              const std::string& sql, Tracer* tracer,
                                              int parent, int64_t op,
                                              PhaseTotals* totals) {
  Timer wall;
  ScopedSpan query(tracer, "query", parent, op);
  {
    ScopedSpan span(tracer, "sql.parse", query.id(), op);
    Timer t;
    FUSION_ASSIGN_OR_RAISE(auto statement, sql::Parser::Parse(sql));
    (void)statement;
    totals->parse_us += t.Millis() * 1e3;
  }
  logical::PlanPtr logical_plan;
  {
    ScopedSpan span(tracer, "logical.plan", query.id(), op);
    Timer t;
    FUSION_ASSIGN_OR_RAISE(logical_plan, ctx->CreateLogicalPlan(sql));
    totals->logical_us += t.Millis() * 1e3;
  }
  {
    ScopedSpan span(tracer, "optimizer.optimize", query.id(), op);
    Timer t;
    FUSION_ASSIGN_OR_RAISE(logical_plan, ctx->OptimizePlan(logical_plan));
    totals->optimize_us += t.Millis() * 1e3;
  }
  physical::ExecPlanPtr plan;
  {
    ScopedSpan span(tracer, "physical.plan", query.id(), op);
    Timer t;
    FUSION_ASSIGN_OR_RAISE(plan, ctx->CreatePhysicalPlan(logical_plan));
    totals->physical_us += t.Millis() * 1e3;
  }
  std::vector<RecordBatchPtr> batches;
  {
    ScopedSpan span(tracer, "physical.execute", query.id(), op);
    Timer t;
    FUSION_ASSIGN_OR_RAISE(batches, ctx->ExecutePhysical(plan));
    totals->execute_ms += t.Millis();
  }
  {
    ScopedSpan span(tracer, "physical.collect_metrics", query.id(), op);
    totals->AddPlanMetrics(physical::CollectMetrics(*plan));
  }
  totals->queries += 1;
  totals->wall_ms += wall.Millis();
  return batches;
}

namespace {

ArrayPtr Dense(const ArrayPtr& array) {
  if (array->type().is_dictionary()) {
    return static_cast<const DictionaryArray&>(*array).Densify();
  }
  return array;
}

std::vector<ArrayPtr> Columns(const RecordBatch& batch, const std::vector<int>& cols) {
  std::vector<ArrayPtr> out;
  for (int c : cols) out.push_back(batch.column(c));
  return out;
}

int64_t TotalRows(const std::vector<RecordBatchPtr>& batches) {
  int64_t rows = 0;
  for (const auto& b : batches) rows += b->num_rows();
  return rows;
}

int64_t DecodedBytes(const Array& array) {
  switch (array.type().id()) {
    case TypeId::kBool:
      return (array.length() + 7) / 8;
    case TypeId::kInt32:
    case TypeId::kDate32:
      return array.length() * 4;
    case TypeId::kInt64:
    case TypeId::kTimestamp:
    case TypeId::kFloat64:
      return array.length() * 8;
    case TypeId::kDecimal128:
      return array.length() * 16;
    case TypeId::kString:
      return static_cast<const StringArray&>(array).data()->size() +
             (array.length() + 1) * 4;
    case TypeId::kDictionary: {
      const auto& dict = static_cast<const DictionaryArray&>(array);
      return array.length() * 4 + DecodedBytes(*dict.dictionary());
    }
    default:
      return 0;
  }
}

/// Repeats `fn` over `batches` until at least `min_rows` rows and three
/// rounds were processed; returns ns per row.
template <typename Fn>
Result<double> NsPerRow(const std::vector<RecordBatchPtr>& batches, int64_t min_rows,
                        Fn fn) {
  const int64_t rows = TotalRows(batches);
  if (rows == 0) return 0.0;
  int64_t done = 0;
  int rounds = 0;
  Timer t;
  while (done < min_rows || rounds < 3) {
    for (const auto& batch : batches) FUSION_RETURN_NOT_OK(fn(*batch));
    done += rows;
    ++rounds;
  }
  return t.Millis() * 1e6 / static_cast<double>(done);
}

bool MentionsWord(const std::string& lower_text, const std::string& word) {
  std::string w = word;
  for (char& c : w) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  size_t pos = 0;
  auto ident = [](char c) { return std::isalnum(static_cast<unsigned char>(c)) || c == '_'; };
  while ((pos = lower_text.find(w, pos)) != std::string::npos) {
    const bool left = pos == 0 || !ident(lower_text[pos - 1]);
    const bool right = pos + w.size() >= lower_text.size() || !ident(lower_text[pos + w.size()]);
    if (left && right) return true;
    pos += w.size();
  }
  return false;
}

}  // namespace

Result<std::vector<RecordBatchPtr>> LoadDense(core::SessionContext* ctx,
                                              const std::string& sql) {
  FUSION_ASSIGN_OR_RAISE(auto batches, ctx->ExecuteSql(sql));
  std::vector<RecordBatchPtr> out;
  for (const auto& b : batches) {
    if (b->num_rows() == 0) continue;
    std::vector<ArrayPtr> cols;
    for (int c = 0; c < b->num_columns(); ++c) cols.push_back(Dense(b->column(c)));
    std::vector<Field> fields;
    for (int c = 0; c < b->num_columns(); ++c) {
      fields.push_back(b->schema()->field(c).WithType(cols[static_cast<size_t>(c)]->type()));
    }
    out.push_back(std::make_shared<RecordBatch>(schema(fields), b->num_rows(), cols));
  }
  return out;
}

Status TimeKernels(const KernelInputs& in, perfbench::Report* report) {
  constexpr int64_t kMinRows = 2'000'000;
  const auto& batches = in.batches;

  FUSION_ASSIGN_OR_RAISE(double filter_ns,
                         NsPerRow(batches, kMinRows, [&](const RecordBatch& b) -> Status {
                           FUSION_ASSIGN_OR_RAISE(
                               auto mask, compute::CompareScalar(
                                              in.filter_op, *b.column(in.filter_col),
                                              in.filter_value));
                           FUSION_ASSIGN_OR_RAISE(
                               auto out, compute::FilterBatch(
                                             b, static_cast<const BooleanArray&>(*mask)));
                           (void)out;
                           return Status::OK();
                         }));
  report->Add("compute.filter_ns_per_row", filter_ns, "ns/row");

  std::vector<uint64_t> hashes;
  FUSION_ASSIGN_OR_RAISE(double hash_ns,
                         NsPerRow(batches, kMinRows, [&](const RecordBatch& b) {
                           return compute::HashColumns(Columns(b, in.hash_cols), &hashes);
                         }));
  report->Add("compute.hash_ns_per_row", hash_ns, "ns/row");

  // GroupTable: a fresh table per round, so every round inserts.
  std::vector<DataType> key_types;
  for (int c : in.group_cols) key_types.push_back(batches.front()->column(c)->type());
  std::vector<std::vector<uint64_t>> group_hashes;
  for (const auto& b : batches) {
    group_hashes.emplace_back();
    FUSION_RETURN_NOT_OK(compute::HashColumns(Columns(*b, in.group_cols), &group_hashes.back()));
  }
  int64_t groups = 0;
  int64_t mapped = 0;
  std::vector<uint32_t> ids;
  Timer group_timer;
  for (int round = 0; round < 3 || mapped < kMinRows / 2; ++round) {
    compute::GroupTable table(key_types);
    for (size_t i = 0; i < batches.size(); ++i) {
      FUSION_RETURN_NOT_OK(
          table.MapBatch(Columns(*batches[i], in.group_cols), group_hashes[i], &ids));
      mapped += batches[i]->num_rows();
    }
    groups = table.num_groups();
  }
  report->Add("compute.group_map_ns_per_row",
              mapped > 0 ? group_timer.Millis() * 1e6 / static_cast<double>(mapped) : 0,
              "ns/row");
  report->Add("compute.groups", static_cast<double>(groups), "count");

  std::vector<DataType> sort_types;
  for (int c : in.sort_cols) sort_types.push_back(batches.front()->column(c)->type());
  row::RowEncoder encoder(sort_types, std::vector<row::SortOptions>(sort_types.size()));
  std::vector<std::string> keys;
  FUSION_ASSIGN_OR_RAISE(double encode_ns,
                         NsPerRow(batches, kMinRows / 2, [&](const RecordBatch& b) {
                           keys.clear();
                           return encoder.EncodeColumns(Columns(b, in.sort_cols), &keys);
                         }));
  report->Add("row.encode_ns_per_row", encode_ns, "ns/row");

  double ser_us = 0, de_us = 0;
  if (!in.ipc_batches.empty()) {
    int64_t calls = 0;
    Timer ser_timer;
    std::vector<std::vector<uint8_t>> blobs;
    while (calls < 200 || ser_timer.Millis() < 20) {
      blobs.clear();
      for (const auto& b : in.ipc_batches) blobs.push_back(ipc::SerializeBatch(*b));
      calls += static_cast<int64_t>(in.ipc_batches.size());
    }
    ser_us = ser_timer.Millis() * 1e3 / static_cast<double>(calls);
    calls = 0;
    Timer de_timer;
    while (calls < 200 || de_timer.Millis() < 20) {
      for (const auto& blob : blobs) {
        FUSION_ASSIGN_OR_RAISE(auto batch, ipc::DeserializeBatch(blob.data(), blob.size()));
        (void)batch;
      }
      calls += static_cast<int64_t>(blobs.size());
    }
    de_us = de_timer.Millis() * 1e3 / static_cast<double>(calls);
  }
  report->Add("arrow.ipc_serialize_us", ser_us, "us");
  report->Add("arrow.ipc_deserialize_us", de_us, "us");
  return Status::OK();
}

Status TimeFpqDecode(const std::vector<std::string>& files, const std::string& sql_text,
                     perfbench::Report* report) {
  std::string lower = sql_text;
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  int64_t bytes = 0;
  int64_t ns = 0;
  for (const auto& path : files) {
    FUSION_ASSIGN_OR_RAISE(auto reader, format::fpq::Reader::Open(path));
    std::vector<int> columns;
    for (int c = 0; c < reader->schema()->num_fields(); ++c) {
      if (MentionsWord(lower, reader->schema()->field(c).name())) columns.push_back(c);
    }
    if (columns.empty()) continue;
    for (int rg = 0; rg < reader->num_row_groups(); ++rg) {
      const int64_t start = NowNs();
      FUSION_ASSIGN_OR_RAISE(auto batch, reader->ReadRowGroup(rg, columns));
      ns += NowNs() - start;
      for (int c = 0; c < batch->num_columns(); ++c) bytes += DecodedBytes(*batch->column(c));
    }
  }
  const double ms = static_cast<double>(ns) * 1e-6;
  report->Add("format.fpq_decode_ms", ms, "ms");
  report->Add("format.fpq_decode_mb_s", ms > 0 ? static_cast<double>(bytes) / 1e6 / (ms * 1e-3) : 0,
              "MB/s");
  return Status::OK();
}

Status TimeCsvParse(const std::string& path, perfbench::Report* report) {
  double ms = 0, mb_s = 0;
  if (!path.empty()) {
    Timer t;
    FUSION_ASSIGN_OR_RAISE(auto batches, format::csv::ReadFile(path));
    ms = t.Millis();
    (void)batches;
    mb_s = static_cast<double>(FileSize(path)) / 1e6 / (ms * 1e-3);
  }
  report->Add("format.csv_parse_ms", ms, "ms");
  report->Add("format.csv_parse_mb_s", mb_s, "MB/s");
  return Status::OK();
}

SchedulerSnapshot SchedulerSnapshot::Take(const exec::QueryScheduler& s) {
  SchedulerSnapshot snap;
  snap.total_tasks = s.total_tasks();
  snap.admission_queued_total = s.admission_queued_total();
  return snap;
}

void ReportExec(const exec::RuntimeEnv& env, const SchedulerSnapshot& before,
                const SchedulerSnapshot& after,
                const exec::BufferCache::Stats& buffer_before, int passes,
                perfbench::Report* report) {
  report->Add("exec.total_tasks",
              static_cast<double>(after.total_tasks - before.total_tasks) /
                  static_cast<double>(std::max(passes, 1)),
              "count");
  report->Add("exec.peak_ready_tasks",
              static_cast<double>(env.scheduler()->peak_ready_tasks()), "count");
  report->Add("exec.admission_queued_total",
              static_cast<double>(after.admission_queued_total - before.admission_queued_total),
              "count");
  double hit_rate = 0, evictions = 0;
  if (env.buffer_cache != nullptr) {
    const auto now = env.buffer_cache->stats();
    const double hits = static_cast<double>(now.hits - buffer_before.hits);
    const double misses = static_cast<double>(now.misses - buffer_before.misses);
    hit_rate = hits + misses > 0 ? hits / (hits + misses) : 0;
    evictions = static_cast<double>(now.evictions - buffer_before.evictions);
  }
  report->Add("exec.buffer_hit_rate", hit_rate, "ratio");
  report->Add("exec.buffer_evictions", evictions, "count");
}

PlanCacheSnapshot PlanCacheSnapshot::Take(const exec::RuntimeEnv& env) {
  PlanCacheSnapshot snap;
  snap.hits = env.plan_cache_stats->hits.load();
  snap.misses = env.plan_cache_stats->misses.load();
  snap.invalidations = env.plan_cache_stats->invalidations.load();
  return snap;
}

void ReportPlanCache(const PlanCacheSnapshot& before, const PlanCacheSnapshot& after,
                     perfbench::Report* report) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  report->Add("core.plan_cache_hit_rate", hits + misses > 0 ? hits / (hits + misses) : 0,
              "ratio");
  report->Add("core.plan_cache_invalidations",
              static_cast<double>(after.invalidations - before.invalidations), "count");
}

}  // namespace perfbench
