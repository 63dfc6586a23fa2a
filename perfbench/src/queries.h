// The benchmark's query sets, pinned here so that the benchmark's
// definition does not change when other code in the repository does.

#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

#include <string>
#include <vector>

namespace perfbench {

struct Query {
  int number;
  std::string sql;
};

/// The 22 TPC-H queries in the engine's dialect (correlated subqueries
/// as their standard join rewrites).
const std::vector<Query>& TpchQueries();
/// The 42 ClickBench queries that run on the synthetic hits schema.
const std::vector<Query>& ClickBenchQueries();
/// The 10 H2O groupby queries (the paper's Figure 6).
const std::vector<Query>& H2oQueries();

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
