// The batch workloads: one client runs a fixed query list in sequence,
// pass after pass, with the buffer cache off so that every scan reads
// and decodes its files. Every answer is checked against TIE's.

#include <cstdio>

#include "baseline/tie_engine.h"
#include "catalog/file_tables.h"
#include "format/csv.h"
#include "compute/temporal.h"
#include "datagen.h"
#include "layers.h"
#include "oracle.h"
#include "queries.h"
#include "workloads.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

struct BatchSpec {
  std::string key;  ///< dataset cache key: workload, scale and seed
  const std::vector<Query>* queries = nullptr;
  GenerateFn generate;
  std::string kernel_sql;  ///< the columns the kernel timings run on
  KernelInputs kernels;    ///< column roles within kernel_sql
};

/// query_tail_ms percentile: a pass has only 10 to 42 queries, so p90 is
/// the highest level that ten passes support.
constexpr double kTailLevel = 90;

using TableList = std::vector<std::pair<std::string, catalog::TableProviderPtr>>;

BatchSpec MakeSpec(const Options& o) {
  BatchSpec spec;
  char key[96];
  KernelInputs& k = spec.kernels;
  if (o.workload == "tpch") {
    const double sf = o.tiny ? 0.002 : 0.02;
    std::snprintf(key, sizeof(key), "tpch-%s-sf%g-seed%llu", kDataVersion, sf,
                  static_cast<unsigned long long>(o.seed));
    spec.queries = &TpchQueries();
    spec.generate = [seed = o.seed, sf](const std::string& dir) {
      return GenerateTpch(seed, sf, dir);
    };
    spec.kernel_sql =
        "SELECT l_orderkey, l_partkey, l_shipdate, l_quantity FROM lineitem";
    k.filter_col = 2;
    k.filter_op = compute::CompareOp::kLtEq;
    k.filter_value = Scalar::Date32(compute::DaysFromCivil(1998, 9, 2));
    k.hash_cols = {0, 1};
    k.group_cols = {0};
    k.sort_cols = {2, 0};
  } else if (o.workload == "clickbench") {
    const int64_t rows = o.tiny ? 20000 : 200000;
    std::snprintf(key, sizeof(key), "clickbench-%s-%lld-seed%llu", kDataVersion,
                  static_cast<long long>(rows),
                  static_cast<unsigned long long>(o.seed));
    spec.queries = &ClickBenchQueries();
    spec.generate = [seed = o.seed, rows](const std::string& dir) {
      return GenerateHits(seed, rows, 20, dir);
    };
    spec.kernel_sql = "SELECT UserID, SearchPhrase, AdvEngineID, EventTime FROM hits";
    k.filter_col = 2;
    k.filter_op = compute::CompareOp::kNeq;
    k.filter_value = Scalar::Int64(0);
    k.hash_cols = {0, 1};
    k.group_cols = {0, 1};
    k.sort_cols = {3, 1};
  } else {
    const int64_t rows = o.tiny ? 5000 : 100000;
    std::snprintf(key, sizeof(key), "h2o-%s-%lld-seed%llu", kDataVersion,
                  static_cast<long long>(rows),
                  static_cast<unsigned long long>(o.seed));
    spec.queries = &H2oQueries();
    spec.generate = [seed = o.seed, rows](const std::string& dir) {
      return GenerateH2o(seed, rows, 100, dir);
    };
    spec.kernel_sql = "SELECT id3, id6, v1, v3 FROM h2o";
    k.filter_col = 2;
    k.filter_op = compute::CompareOp::kGt;
    k.filter_value = Scalar::Int64(2);
    k.hash_cols = {0};
    k.group_cols = {0};
    k.sort_cols = {1, 3};
  }
  spec.key = key;
  return spec;
}

/// Opens the dataset's tables. TIE's copies have scan pushdown off, so
/// TIE filters after decoding whole row groups.
Result<TableList> OpenTables(const Options& o, const Dataset& ds, bool for_tie) {
  TableList out;
  if (o.workload == "tpch") {
    for (size_t i = 0; i < TpchTables().size(); ++i) {
      FUSION_ASSIGN_OR_RAISE(auto table, catalog::FpqTable::Open({ds.files[i]}));
      if (for_tie) table->SetPushdownEnabled(false);
      out.emplace_back(TpchTables()[i], table);
    }
  } else if (o.workload == "clickbench") {
    FUSION_ASSIGN_OR_RAISE(auto table, catalog::FpqTable::Open(ds.files));
    if (for_tie) table->SetPushdownEnabled(false);
    out.emplace_back("hits", table);
  } else {
    FUSION_ASSIGN_OR_RAISE(auto table, catalog::CsvTable::Open(ds.files));
    out.emplace_back("h2o", table);
  }
  return out;
}

Result<core::SessionContextPtr> MakeSession(const TableList& tables, int partitions) {
  exec::SessionConfig config;
  if (partitions > 0) config.target_partitions = partitions;
  auto env = std::make_shared<exec::RuntimeEnv>();
  env->buffer_cache = nullptr;  // every scan decodes
  auto ctx = core::SessionContext::Make(config, env);
  for (const auto& [name, table] : tables) {
    FUSION_RETURN_NOT_OK(ctx->RegisterTable(name, table));
  }
  return ctx;
}

Result<std::vector<RecordBatchPtr>> RunTie(core::SessionContext* ctx, const std::string& sql) {
  FUSION_ASSIGN_OR_RAISE(auto plan, ctx->CreateLogicalPlan(sql));
  FUSION_ASSIGN_OR_RAISE(plan, ctx->OptimizePlan(plan));
  baseline::TieEngine engine;
  return engine.Execute(plan);
}

/// TIE's answer to every query, cached next to the data under a key of
/// the query text. `force` re-runs TIE (for baseline.tie_total_s).
Result<std::vector<Answer>> BaselineAnswers(const Options& o, const BatchSpec& spec,
                                            const Dataset& ds, bool force,
                                            double* tie_total_s) {
  FUSION_ASSIGN_OR_RAISE(auto tables, OpenTables(o, ds, /*for_tie=*/true));
  FUSION_ASSIGN_OR_RAISE(auto tie_ctx, MakeSession(tables, 1));
  FUSION_RETURN_NOT_OK(MakeDirs(ds.dir + "/tie"));
  std::vector<Answer> answers;
  *tie_total_s = 0;
  for (const auto& q : *spec.queries) {
    const std::string path = ds.dir + "/tie/" + Hex64(Fnv64(q.sql)) + ".ans";
    if (!force && PathExists(path)) {
      FUSION_ASSIGN_OR_RAISE(auto text, ReadWholeFile(path));
      auto parsed = ParseAnswer(text);
      if (parsed.ok()) {
        answers.push_back(std::move(*parsed));
        continue;
      }
    }
    Timer t;
    auto result = RunTie(tie_ctx.get(), q.sql);
    *tie_total_s += t.Seconds();
    if (!result.ok()) {
      return Status::Invalid("TIE failed on query " + std::to_string(q.number) + ": " +
                             result.status().ToString());
    }
    answers.push_back(ToAnswer(*result));
    FUSION_RETURN_NOT_OK(WriteFileAtomic(path, SerializeAnswer(answers.back())));
  }
  return answers;
}

struct Checker {
  const std::vector<Query>* queries;
  std::vector<Answer> expected;
  std::vector<OrderSpec> order;
  bool corrupt = false;
  Outcome* outcome;

  /// Counts one execution; records the first few failures in the notes.
  void Check(size_t q, const Result<std::vector<RecordBatchPtr>>& result) {
    outcome->attempted += 1;
    std::string diff;
    if (!result.ok()) {
      diff = result.status().ToString();
    } else {
      Answer answer = ToAnswer(*result);
      if (corrupt && q == 0) CorruptAnswer(&answer);
      diff = CompareAnswers(expected[q], answer, order[q]);
    }
    if (!diff.empty()) {
      outcome->failed += 1;
      if (outcome->failed <= 5) {
        outcome->notes += "FAILED query " + std::to_string((*queries)[q].number) + ": " +
                          diff + "\n";
      }
    }
  }
};

void AddZeroServingLayers(Report* r) {
  r->Add("flight.ping_ms", 0, "ms");
  r->Add("flight.wire_overhead_ms", 0, "ms");
  r->Add("flight.put_p50_ms", 0, "ms");
  r->Add("flight.bytes_sent", 0, "bytes");
  r->Add("flight.frame_errors", 0, "count");
}

}  // namespace

Status PrepareBatch(const Options& o) {
  const BatchSpec spec = MakeSpec(o);
  FUSION_ASSIGN_OR_RAISE(auto ds, EnsureDataset(o.data_root, spec.key, spec.generate));
  double tie_s = 0;
  return BaselineAnswers(o, spec, ds, /*force=*/false, &tie_s).status();
}

Status RunBatch(const Options& o, Outcome* outcome) {
  const BatchSpec spec = MakeSpec(o);
  const auto& queries = *spec.queries;
  Report& r = outcome->report;

  FUSION_ASSIGN_OR_RAISE(Dataset ds, EnsureDataset(o.data_root, spec.key, spec.generate));
  FUSION_ASSIGN_OR_RAISE(auto tables, OpenTables(o, ds, false));
  FUSION_ASSIGN_OR_RAISE(auto ctx, MakeSession(tables, 0));

  Checker checker{&queries, {}, {}, o.corrupt, outcome};
  double tie_s = 0;
  FUSION_ASSIGN_OR_RAISE(checker.expected, BaselineAnswers(o, spec, ds, o.trace, &tie_s));
  for (size_t q = 0; q < queries.size(); ++q) {
    checker.order.push_back(ParseOrderSpec(queries[q].sql, checker.expected[q].names));
    SortAnswer(&checker.expected[q], checker.order.back());
  }

  // Warm-up pass: page cache, allocator, lazily built state.
  for (size_t q = 0; q < queries.size(); ++q) {
    checker.Check(q, ctx->ExecuteSql(queries[q].sql));
  }

  if (!o.trace) {
    std::vector<std::vector<double>> per_query(queries.size());
    std::vector<double> all_ms;
    double busy_ms = 0;
    const HostCpuTicks timed_start = HostCpuTicks::Read();
    ResetPeakRss();
    Timer run;
    while (all_ms.empty() || run.Seconds() < o.seconds) {
      for (size_t q = 0; q < queries.size(); ++q) {
        Timer t;
        auto result = ctx->ExecuteSql(queries[q].sql);
        const double ms = t.Millis();
        per_query[q].push_back(ms);
        all_ms.push_back(ms);
        busy_ms += ms;
        checker.Check(q, result);
      }
    }
    const double rss = PeakRssMb();
    const HostCpuTicks timed_end = HostCpuTicks::Read();
    std::vector<double> medians;
    char line[96];
    for (size_t q = 0; q < queries.size(); ++q) {
      medians.push_back(Median(per_query[q]));
      std::snprintf(line, sizeof(line), "  Q%-3d median %9.3f ms over %zu runs\n",
                    queries[q].number, medians.back(), per_query[q].size());
      outcome->notes += line;
    }
    double total_ms = 0;
    for (double m : medians) total_ms += m;
    auto [level, tail] = HonestTail(all_ms, kTailLevel);
    std::snprintf(line, sizeof(line), "query_tail_ms is p%g over %zu executions\n", level,
                  all_ms.size());
    outcome->notes += line;
    // Set-up: generate the inputs, open the tables, create the session.
    std::vector<double> setup_s;
    const std::string setup_key = spec.key + "-setup";
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
      RemoveTree(o.data_root + "/" + setup_key);
      Timer t;
      FUSION_ASSIGN_OR_RAISE(Dataset fresh, EnsureDataset(o.data_root, setup_key, spec.generate));
      FUSION_ASSIGN_OR_RAISE(auto fresh_tables, OpenTables(o, fresh, false));
      FUSION_ASSIGN_OR_RAISE(auto fresh_ctx, MakeSession(fresh_tables, 0));
      setup_s.push_back(t.Seconds());
      RemoveTree(fresh.dir);
    }
    std::snprintf(line, sizeof(line),
                  "host steal: %.1f%% of CPU time in the timed section, %.1f%% in the "
                  "set-ups\n",
                  100 * StealShare(timed_start, timed_end),
                  100 * StealShare(timed_end, HostCpuTicks::Read()));
    outcome->notes += line;
    r.Add("setup_s", Median(setup_s), "s");
    r.Add("total_s", total_ms / 1e3, "s");
    r.Add("geomean_ms", GeoMean(medians), "ms");
    r.Add("qps", static_cast<double>(all_ms.size()) / (busy_ms / 1e3), "1/s");
    r.Add("query_p50_ms", Median(all_ms), "ms");
    r.Add("query_tail_ms", tail, "ms");
    r.Add("peak_rss_mb", rss, "MB");
    return Status::OK();
  }

  // Traced run: untraced passes alternating with passes through the
  // split calls, then the kernel timings on the workload's own data.
  r.Add("baseline.tie_total_s", tie_s, "s");
  std::vector<double> open_ms;
  for (int rep = 0; rep < kOpenRepetitions; ++rep) {
    Timer t;
    FUSION_ASSIGN_OR_RAISE(auto tables, OpenTables(o, ds, false));
    open_ms.push_back(t.Millis());
  }
  r.Add("catalog.open_ms", Median(open_ms), "ms");

  // Untraced and traced passes alternate until the time is up; the gap
  // between their median pass times is the tracing overhead.
  const exec::RuntimeEnv& env = *ctx->env();
  const auto plan_before = PlanCacheSnapshot::Take(env);
  const auto sched_before = SchedulerSnapshot::Take(*env.scheduler());
  Tracer tracer;
  PhaseTotals totals;
  totals.passes = 0;
  std::vector<double> untraced_pass_ms, traced_pass_ms, local_ms;
  std::vector<RecordBatchPtr> results;
  Timer run;
  while (totals.passes == 0 || run.Seconds() < o.seconds) {
    double untraced_ms = 0;
    for (size_t q = 0; q < queries.size(); ++q) {
      Timer t;
      auto result = ctx->ExecuteSql(queries[q].sql);
      const double ms = t.Millis();
      untraced_ms += ms;
      local_ms.push_back(ms);
      checker.Check(q, result);
    }
    untraced_pass_ms.push_back(untraced_ms);
    const double wall_before = totals.wall_ms;
    ScopedSpan pass(&tracer, "pass", -1, totals.passes);
    for (size_t q = 0; q < queries.size(); ++q) {
      auto result = RunTraced(ctx.get(), queries[q].sql, &tracer, pass.id(),
                              queries[q].number, &totals);
      if (result.ok() && totals.passes == 0) {
        results.insert(results.end(), result->begin(), result->end());
      }
      checker.Check(q, result);
    }
    traced_pass_ms.push_back(totals.wall_ms - wall_before);
    totals.passes += 1;
  }
  ReportPlanCache(plan_before, PlanCacheSnapshot::Take(env), &r);
  r.Add("core.local_ms", Median(local_ms), "ms");
  // Tasks per pass; untraced and traced passes ran in equal numbers.
  ReportExec(env, sched_before, SchedulerSnapshot::Take(*env.scheduler()), {},
             2 * totals.passes, &r);
  totals.Report(&r);
  r.Add("trace.overhead_ms", Median(traced_pass_ms) - Median(untraced_pass_ms), "ms");

  KernelInputs kernels = spec.kernels;
  FUSION_ASSIGN_OR_RAISE(kernels.batches, LoadDense(ctx.get(), spec.kernel_sql));
  for (const auto& b : results) {
    if (b->num_rows() > 0) kernels.ipc_batches.push_back(b);
  }
  FUSION_RETURN_NOT_OK(TimeKernels(kernels, &r));
  std::string all_sql;
  for (const auto& q : queries) all_sql += q.sql + "\n";
  FUSION_RETURN_NOT_OK(MakeDirs(o.out_dir));
  // The CSV reader runs on h2o_csv's input, and on tpch's lineitem
  // written out here in TPC-H's own text form (the data set holds only
  // FPQ files, so that setup_s never pays for this file).
  const bool csv_input = o.workload == "h2o_csv";
  FUSION_RETURN_NOT_OK(TimeFpqDecode(csv_input ? std::vector<std::string>{} : ds.files,
                                     all_sql, &r));
  std::string csv_file = csv_input ? ds.files[0] : "";
  if (o.workload == "tpch") {
    csv_file = o.out_dir + "/lineitem-seed" + std::to_string(o.seed) + ".csv";
    FUSION_ASSIGN_OR_RAISE(auto lineitem, LoadDense(ctx.get(), "SELECT * FROM lineitem"));
    FUSION_RETURN_NOT_OK(format::csv::WriteFile(csv_file, lineitem));
  }
  FUSION_RETURN_NOT_OK(TimeCsvParse(csv_file, &r));
  if (o.workload == "tpch") std::remove(csv_file.c_str());
  AddZeroServingLayers(&r);

  const std::string trace_path = o.out_dir + "/trace-" + o.workload + "-seed" +
                                 std::to_string(o.seed) + ".json";
  FUSION_RETURN_NOT_OK(tracer.WriteChromeJson(trace_path));
  outcome->notes += "wrote " + trace_path + "\n";
  return Status::OK();
}

}  // namespace perfbench
