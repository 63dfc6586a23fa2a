// The serving workload: an in-process FlightServer over one shared
// session, driven by a closed loop of four client connections. Each
// client waits for every reply before it sends its next request.
// Requests mix ad hoc and prepared statements whose literals are drawn
// from a small skewed set, so the plan cache both hits and misses; one
// request in kPutEvery uploads a replacement for the client's own side
// table (bumping the catalog epoch, which flushes the plan cache) and is
// followed by a read-back of that table's row count.

#include <cstdio>
#include <map>
#include <thread>

#include "arrow/builder.h"
#include "baseline/tie_engine.h"
#include "catalog/file_tables.h"
#include "catalog/memory_table.h"
#include "datagen.h"
#include "exec/buffer_cache.h"
#include "exec/scheduler.h"
#include "flight/client.h"
#include "flight/server.h"
#include "layers.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

constexpr int kClients = 4;
constexpr int kPutEvery = 50;
constexpr int kLiterals = 8;
constexpr int64_t kBufferCacheBytes = 256LL << 20;

/// Query templates over t; %d is the literal.
const char* const kTemplates[] = {
    "SELECT grp, count(*) AS n, sum(v) AS s FROM t WHERE v > %d GROUP BY grp",
    "SELECT count(*) AS n, sum(v) AS s FROM t WHERE grp = 'grp%d'",
    "SELECT grp, avg(f) AS a FROM t WHERE v BETWEEN %d AND %d + 250 GROUP BY grp",
    "SELECT min(id) AS lo, max(id) AS hi, count(*) AS n FROM t WHERE f < %d",
};
constexpr int kNumTemplates = 4;

int LiteralValue(int tmpl, int index) {
  static const int kValues[kNumTemplates][kLiterals] = {
      {500, 100, 900, 250, 750, 50, 990, 333},
      {7, 42, 3, 91, 19, 57, 23, 11},
      {100, 400, 0, 700, 250, 550, 50, 650},
      {500, 100, 900, 250, 750, 50, 990, 333},
  };
  return kValues[tmpl][index];
}

std::string TemplateSql(int tmpl, int literal_index) {
  const int v = LiteralValue(tmpl, literal_index);
  char buf[160];
  std::snprintf(buf, sizeof(buf), kTemplates[tmpl], v, v);
  return buf;
}

enum class Kind { kQuery, kPut, kReadback };

struct Request {
  Kind kind = Kind::kQuery;
  int tmpl = 0;
  bool prepared = false;
  std::string sql;
  int64_t put_rows = 0;
};

/// The deterministic request stream of one client.
class Script {
 public:
  Script(uint64_t seed, int client) : rng_(Mix(seed, 400 + static_cast<uint64_t>(client))),
                                      zipf_(kLiterals, 1.1), client_(client) {}

  Request Next() {
    Request req;
    ++count_;
    if (pending_readback_) {
      pending_readback_ = false;
      req.kind = Kind::kReadback;
      req.sql = "SELECT count(*) AS n FROM " + SideTable(client_);
      req.put_rows = last_put_rows_;
      return req;
    }
    if (count_ % kPutEvery == 0) {
      req.kind = Kind::kPut;
      req.put_rows = rng_.Uniform(50, 500);
      last_put_rows_ = req.put_rows;
      pending_readback_ = true;
      return req;
    }
    req.tmpl = static_cast<int>(rng_.Uniform(0, kNumTemplates - 1));
    req.prepared = rng_.Next() % 2 == 0;
    req.sql = TemplateSql(req.tmpl, static_cast<int>(zipf_.Sample(&rng_)));
    return req;
  }

  Rng* rng() { return &rng_; }
  static std::string SideTable(int client) { return "side_" + std::to_string(client); }

 private:
  Rng rng_;
  Zipf zipf_;
  int client_;
  int64_t count_ = 0;
  bool pending_readback_ = false;
  int64_t last_put_rows_ = 0;
};

RecordBatchPtr MakePutBatch(Rng* rng, int64_t rows) {
  Int64Builder k;
  Float64Builder x;
  for (int64_t i = 0; i < rows; ++i) {
    k.Append(static_cast<int64_t>(rng->Next() % 1000));
    x.Append(rng->UniformDouble(0, 1));
  }
  auto schema = fusion::schema({Field("k", int64(), false), Field("x", float64(), false)});
  return std::make_shared<RecordBatch>(schema, rows,
                                       std::vector<ArrayPtr>{k.Finish().ValueOrDie(),
                                                             x.Finish().ValueOrDie()});
}

std::string KindName(const Request& req) {
  if (req.kind == Kind::kPut) return "put";
  if (req.kind == Kind::kReadback) return "readback";
  return "T" + std::to_string(req.tmpl) + (req.prepared ? "/prepared" : "/adhoc");
}

struct Server {
  std::shared_ptr<exec::RuntimeEnv> env;
  core::SessionContextPtr session;
  std::unique_ptr<flight::FlightServer> server;
};

Result<Server> StartServer(const Dataset& ds) {
  Server s;
  s.env = std::make_shared<exec::RuntimeEnv>();
  s.env->query_scheduler = std::make_shared<exec::QueryScheduler>(kClients);
  s.env->buffer_cache = std::make_shared<exec::BufferCache>(kBufferCacheBytes);
  exec::SessionConfig config;
  // One partition per query: with the default (one per core), a worker
  // of QueryScheduler can drop the last reference to a finished query's
  // TaskGroup while it holds the scheduler mutex, and ~TaskGroup ->
  // Finish() locks that mutex again. The process then deadlocks, in
  // about one of six 4-second runs of this loop. Single-partition plans
  // spawn no scheduler tasks, so they cannot reach that path.
  config.target_partitions = 1;
  config.plan_cache_entries = 64;
  config.admission_max_concurrent = kClients;
  config.admission_max_queued = 64;
  s.session = core::SessionContext::Make(config, s.env);
  FUSION_RETURN_NOT_OK(s.session->RegisterFpq("t", ds.files.front()));
  for (int c = 0; c < kClients; ++c) {
    Rng rng(Mix(0, static_cast<uint64_t>(c)));
    auto batch = MakePutBatch(&rng, 1);
    FUSION_ASSIGN_OR_RAISE(auto side, catalog::MemoryTable::Make(batch->schema(), {batch}));
    FUSION_RETURN_NOT_OK(s.session->RegisterTable(Script::SideTable(c), side));
  }
  FUSION_ASSIGN_OR_RAISE(s.server, flight::FlightServer::Start(s.session));
  return s;
}

/// Every distinct template query, and its in-process answer.
struct Expected {
  std::vector<std::string> sqls;
  std::map<std::string, Answer> answers;
};

Result<Expected> InProcessAnswers(core::SessionContext* session) {
  Expected e;
  for (int tmpl = 0; tmpl < kNumTemplates; ++tmpl) {
    for (int i = 0; i < kLiterals; ++i) {
      const std::string sql = TemplateSql(tmpl, i);
      FUSION_ASSIGN_OR_RAISE(auto batches, session->ExecuteSql(sql));
      e.sqls.push_back(sql);
      Answer answer = ToAnswer(batches);
      SortAnswer(&answer, OrderSpec{});
      e.answers[sql] = std::move(answer);
    }
  }
  return e;
}

struct Sample {
  std::string kind;
  double ms;
};

struct ClientResult {
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string notes;
};

/// One connection with every template prepared on it. The server's
/// caches are already warm from computing the expected answers.
struct Client {
  std::unique_ptr<flight::FlightClient> conn;
  std::map<std::string, flight::PreparedStatement> prepared;
};

Status Connect(int port, const Expected& expected, Client* client) {
  FUSION_ASSIGN_OR_RAISE(client->conn, flight::FlightClient::Connect("127.0.0.1", port));
  for (const auto& sql : expected.sqls) {
    FUSION_ASSIGN_OR_RAISE(client->prepared[sql], client->conn->Prepare(sql));
  }
  return Status::OK();
}

/// Connects every client and prepares every template on it, in parallel.
Result<std::vector<Client>> ConnectAll(int port, const Expected& expected) {
  std::vector<Client> clients(kClients);
  std::vector<Status> status(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] { status[c] = Connect(port, expected, &clients[c]); });
  }
  for (auto& t : threads) t.join();
  for (const auto& st : status) FUSION_RETURN_NOT_OK(st);
  return clients;
}

/// Client `c`'s closed loop: send the next request of its script as
/// soon as the previous reply is in, until `deadline_ns`.
void RunClient(int c, Client* client, const Options& o, const Expected& expected,
               int64_t deadline_ns, Tracer* tracer, ClientResult* out) {
  Script script(o.seed, c);
  bool corrupt = o.corrupt && c == 0;
  while (NowNs() < deadline_ns) {
    Request req = script.Next();
    RecordBatchPtr put_batch;
    if (req.kind == Kind::kPut) put_batch = MakePutBatch(script.rng(), req.put_rows);
    std::string diff;
    Result<std::vector<RecordBatchPtr>> result = std::vector<RecordBatchPtr>{};
    const int span =
        tracer != nullptr ? tracer->Begin(KindName(req), -1, out->attempted, c) : -1;
    const int64_t start = NowNs();
    if (req.kind == Kind::kPut) {
      auto put = client->conn->Put(Script::SideTable(c), {put_batch}, /*replace=*/true);
      if (!put.ok()) diff = put.status().ToString();
    } else if (req.prepared) {
      result = client->conn->GetPrepared(client->prepared.at(req.sql));
    } else {
      result = client->conn->Get(req.sql);
    }
    const double ms = static_cast<double>(NowNs() - start) * 1e-6;
    if (tracer != nullptr) tracer->End(span);
    out->samples.push_back({KindName(req), ms});
    out->attempted += 1;

    if (!result.ok()) {
      diff = result.status().ToString();
    } else if (req.kind != Kind::kPut) {
      Answer answer = ToAnswer(*result);
      if (corrupt) {
        CorruptAnswer(&answer);
        corrupt = false;
      }
      if (req.kind == Kind::kReadback) {
        const std::string want = std::to_string(req.put_rows);
        if (SingleValue(answer) != want) {
          diff = "read-back of " + Script::SideTable(c) + " differs from the " + want +
                 " rows put";
        }
      } else {
        diff = CompareAnswers(expected.answers.at(req.sql), answer, OrderSpec{});
      }
    }
    if (!diff.empty()) {
      out->failed += 1;
      if (out->failed <= 3) out->notes += "FAILED " + KindName(req) + ": " + diff + "\n";
    }
  }
}

struct LoadResult {
  std::vector<Sample> samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  double seconds = 0;

  std::vector<double> Latencies(bool puts) const {
    std::vector<double> out;
    for (const auto& s : samples) {
      if ((s.kind == "put") == puts) out.push_back(s.ms);
    }
    return out;
  }
  std::map<std::string, std::vector<double>> ByKind() const {
    std::map<std::string, std::vector<double>> out;
    for (const auto& s : samples) out[s.kind].push_back(s.ms);
    return out;
  }
};

/// Runs every client's loop for `seconds`, one thread per client.
LoadResult RunLoad(std::vector<Client>* clients, const Options& o, const Expected& expected,
                   double seconds, std::vector<Tracer>* tracers, Outcome* outcome) {
  std::vector<ClientResult> results(kClients);
  std::vector<std::thread> threads;
  Timer timer;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int c = 0; c < kClients; ++c) {
    Tracer* tracer = tracers != nullptr ? &(*tracers)[static_cast<size_t>(c)] : nullptr;
    threads.emplace_back(RunClient, c, &(*clients)[static_cast<size_t>(c)], std::cref(o),
                         std::cref(expected), deadline, tracer, &results[static_cast<size_t>(c)]);
  }
  for (auto& t : threads) t.join();
  LoadResult load;
  load.seconds = timer.Seconds();
  for (auto& r : results) {
    load.samples.insert(load.samples.end(), r.samples.begin(), r.samples.end());
    load.attempted += r.attempted;
    load.failed += r.failed;
    outcome->notes += r.notes;
  }
  return load;
}

std::string DatasetKey(const Options& o, int64_t rows) {
  return std::string("serving-") + kDataVersion + "-" + std::to_string(rows) + "-seed" +
         std::to_string(o.seed);
}

int64_t TableRows(const Options& o) { return o.tiny ? 5000 : 200000; }

GenerateFn Generator(const Options& o) {
  return [seed = o.seed, rows = TableRows(o)](const std::string& dir) {
    return GenerateServing(seed, rows, dir);
  };
}

}  // namespace

Status PrepareServing(const Options& o) {
  return EnsureDataset(o.data_root, DatasetKey(o, TableRows(o)), Generator(o)).status();
}

Status RunServing(const Options& o, Outcome* outcome) {
  const int64_t rows = TableRows(o);
  Report& r = outcome->report;
  const GenerateFn generate = Generator(o);

  FUSION_ASSIGN_OR_RAISE(Dataset ds, EnsureDataset(o.data_root, DatasetKey(o, rows), generate));
  FUSION_ASSIGN_OR_RAISE(Server s, StartServer(ds));

  FUSION_ASSIGN_OR_RAISE(Expected expected, InProcessAnswers(s.session.get()));
  FUSION_ASSIGN_OR_RAISE(auto clients, ConnectAll(s.server->port(), expected));
  char line[160];
  std::snprintf(line, sizeof(line),
                "table t: %lld rows, %lld bytes on disk; buffer cache %lld bytes, "
                "holding %lld bytes after warm-up\n",
                static_cast<long long>(rows), static_cast<long long>(FileSize(ds.files.front())),
                static_cast<long long>(kBufferCacheBytes),
                static_cast<long long>(s.env->buffer_cache->stats().cached_bytes));
  outcome->notes += line;

  if (!o.trace) {
    const HostCpuTicks timed_start = HostCpuTicks::Read();
    ResetPeakRss();
    LoadResult load = RunLoad(&clients, o, expected, o.seconds, nullptr, outcome);
    const double rss = PeakRssMb();
    const HostCpuTicks timed_end = HostCpuTicks::Read();
    outcome->attempted += load.attempted;
    outcome->failed += load.failed;
    std::vector<double> kind_medians;
    double total_ms = 0;
    for (const auto& [kind, ms] : load.ByKind()) {
      kind_medians.push_back(Median(ms));
      total_ms += kind_medians.back();
      std::snprintf(line, sizeof(line), "  %-12s median %9.3f ms over %zu requests\n",
                    kind.c_str(), kind_medians.back(), ms.size());
      outcome->notes += line;
    }
    const auto queries = load.Latencies(false);
    auto [level, tail] = HonestTail(queries, 99);
    std::snprintf(line, sizeof(line),
                  "query_tail_ms is p%g over %zu queries; put p50 %.3f ms over %zu puts\n",
                  level, queries.size(), Median(load.Latencies(true)),
                  load.Latencies(true).size());
    outcome->notes += line;
    // Set-up: generate the table, register it, start a server.
    std::vector<double> setup_s;
    const std::string setup_key = DatasetKey(o, rows) + "-setup";
    for (int rep = 0; rep < kSetupRepetitions; ++rep) {
      RemoveTree(o.data_root + "/" + setup_key);
      Timer t;
      FUSION_ASSIGN_OR_RAISE(Dataset fresh, EnsureDataset(o.data_root, setup_key, generate));
      FUSION_ASSIGN_OR_RAISE(Server fresh_server, StartServer(fresh));
      setup_s.push_back(t.Seconds());
      fresh_server.server->Shutdown();
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
    r.Add("geomean_ms", GeoMean(kind_medians), "ms");
    r.Add("qps", static_cast<double>(load.attempted) / load.seconds, "1/s");
    r.Add("query_p50_ms", Median(queries), "ms");
    r.Add("query_tail_ms", tail, "ms");
    r.Add("peak_rss_mb", rss, "MB");
  } else {
    // Traced run: half the time untraced, half with a span per request;
    // the gap between their median latencies is the tracing overhead.
    const exec::RuntimeEnv& env = *s.env;
    const auto plan_before = PlanCacheSnapshot::Take(env);
    const auto sched_before = SchedulerSnapshot::Take(*env.scheduler());
    const auto buffer_before = env.buffer_cache->stats();
    const auto server_before = s.server->stats();
    LoadResult plain = RunLoad(&clients, o, expected, o.seconds / 2, nullptr, outcome);
    std::vector<Tracer> tracers(kClients);
    LoadResult traced = RunLoad(&clients, o, expected, o.seconds / 2, &tracers, outcome);
    outcome->attempted += plain.attempted + traced.attempted;
    outcome->failed += plain.failed + traced.failed;
    ReportPlanCache(plan_before, PlanCacheSnapshot::Take(env), &r);
    ReportExec(env, sched_before, SchedulerSnapshot::Take(*env.scheduler()), buffer_before,
               1, &r);
    const auto server_after = s.server->stats();
    r.Add("trace.overhead_ms",
          Median(traced.Latencies(false)) - Median(plain.Latencies(false)), "ms");
    std::vector<double> puts = plain.Latencies(true);
    const auto traced_puts = traced.Latencies(true);
    puts.insert(puts.end(), traced_puts.begin(), traced_puts.end());
    r.Add("flight.put_p50_ms", Median(puts), "ms");
    r.Add("flight.bytes_sent",
          static_cast<double>(server_after.bytes_sent - server_before.bytes_sent), "bytes");
    r.Add("flight.frame_errors",
          static_cast<double>(server_after.frame_errors - server_before.frame_errors), "count");

    // One caller, no load: in-process vs over the wire, per request.
    std::vector<double> local_ms, overhead_ms, ping_ms;
    std::vector<RecordBatchPtr> replies;
    auto& conn = *clients.front().conn;
    for (const auto& sql : expected.sqls) {
      std::vector<double> local, wire;
      for (int i = 0; i < 3; ++i) {
        Timer t;
        FUSION_ASSIGN_OR_RAISE(auto batches, s.session->ExecuteSql(sql));
        local.push_back(t.Millis());
        if (i == 0) replies.insert(replies.end(), batches.begin(), batches.end());
        Timer w;
        FUSION_ASSIGN_OR_RAISE(auto got, conn.Get(sql));
        wire.push_back(w.Millis());
      }
      local_ms.push_back(Median(local));
      overhead_ms.push_back(Median(wire) - Median(local));
    }
    for (int i = 0; i < 21; ++i) {
      Timer t;
      FUSION_RETURN_NOT_OK(conn.Ping());
      ping_ms.push_back(t.Millis());
    }
    r.Add("core.local_ms", Median(local_ms), "ms");
    r.Add("flight.wire_overhead_ms", Median(overhead_ms), "ms");
    r.Add("flight.ping_ms", Median(ping_ms), "ms");

    // The split planning calls and operator metrics, per request.
    Tracer& tracer = tracers.front();
    PhaseTotals totals;
    int64_t op = 0;
    for (const auto& sql : expected.sqls) {
      FUSION_ASSIGN_OR_RAISE(auto batches,
                             RunTraced(s.session.get(), sql, &tracer, -1, ++op, &totals));
      outcome->attempted += 1;
      const std::string diff =
          CompareAnswers(expected.answers.at(sql), ToAnswer(batches), OrderSpec{});
      if (!diff.empty()) {
        outcome->failed += 1;
        outcome->notes += "FAILED traced " + sql + ": " + diff + "\n";
      }
    }
    totals.Report(&r);

    std::vector<double> open_ms;
    for (int rep = 0; rep < kOpenRepetitions; ++rep) {
      Timer t;
      FUSION_ASSIGN_OR_RAISE(auto table, catalog::FpqTable::Open({ds.files.front()}));
      open_ms.push_back(t.Millis());
    }
    r.Add("catalog.open_ms", Median(open_ms), "ms");

    KernelInputs kernels;
    FUSION_ASSIGN_OR_RAISE(kernels.batches, LoadDense(s.session.get(), "SELECT id, grp, v, f FROM t"));
    kernels.filter_col = 2;
    kernels.filter_op = compute::CompareOp::kGt;
    kernels.filter_value = Scalar::Int64(500);
    kernels.hash_cols = {1};
    kernels.group_cols = {1};
    kernels.sort_cols = {2, 3};
    kernels.ipc_batches = replies;
    Rng put_rng(Mix(o.seed, 500));
    for (int i = 0; i < 4; ++i) kernels.ipc_batches.push_back(MakePutBatch(&put_rng, 300));
    FUSION_RETURN_NOT_OK(TimeKernels(kernels, &r));
    std::string all_sql;
    for (const auto& sql : expected.sqls) all_sql += sql + "\n";
    FUSION_RETURN_NOT_OK(TimeFpqDecode(ds.files, all_sql, &r));
    FUSION_RETURN_NOT_OK(TimeCsvParse("", &r));

    // TIE over the same requests, as the machine yardstick.
    FUSION_ASSIGN_OR_RAISE(auto tie_table, catalog::FpqTable::Open({ds.files.front()}));
    tie_table->SetPushdownEnabled(false);
    auto tie_env = std::make_shared<exec::RuntimeEnv>();
    tie_env->buffer_cache = nullptr;
    exec::SessionConfig tie_config;
    tie_config.target_partitions = 1;
    auto tie_ctx = core::SessionContext::Make(tie_config, tie_env);
    FUSION_RETURN_NOT_OK(tie_ctx->RegisterTable("t", tie_table));
    Timer tie_timer;
    for (const auto& sql : expected.sqls) {
      FUSION_ASSIGN_OR_RAISE(auto plan, tie_ctx->CreateLogicalPlan(sql));
      FUSION_ASSIGN_OR_RAISE(plan, tie_ctx->OptimizePlan(plan));
      baseline::TieEngine engine;
      FUSION_ASSIGN_OR_RAISE(auto result, engine.Execute(plan));
    }
    r.Add("baseline.tie_total_s", tie_timer.Seconds(), "s");

    Tracer merged;
    for (const auto& t : tracers) merged.Merge(t);
    FUSION_RETURN_NOT_OK(MakeDirs(o.out_dir));
    const std::string trace_path =
        o.out_dir + "/trace-serving-seed" + std::to_string(o.seed) + ".json";
    FUSION_RETURN_NOT_OK(merged.WriteChromeJson(trace_path));
    outcome->notes += "wrote " + trace_path + "\n";
  }
  for (auto& client : clients) client.conn->Close();
  s.server->Shutdown();
  return Status::OK();
}

}  // namespace perfbench
