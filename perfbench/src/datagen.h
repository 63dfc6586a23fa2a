// Seeded input generators. Every generator draws all of its randomness
// from the seed, so the same seed always writes the same bytes.

#ifndef PERFBENCH_DATAGEN_H_
#define PERFBENCH_DATAGEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.h"

namespace perfbench {

/// TPC-H, one FPQ file per table, money columns as DECIMAL(15,2).
/// Writes <table>.fpq for the eight tables, in TpchTables() order.
Result<std::vector<std::string>> GenerateTpch(uint64_t seed, double scale_factor,
                                              const std::string& dir);
const std::vector<std::string>& TpchTables();

/// The synthetic ClickBench "hits" table as `files` FPQ files. EventTime
/// is unique per row, so every ORDER BY EventTime has one answer.
Result<std::vector<std::string>> GenerateHits(uint64_t seed, int64_t rows, int files,
                                              const std::string& dir);

/// H2O groupby G1 data (id1..id6, v1..v3) as one CSV file, h2o.csv.
Result<std::vector<std::string>> GenerateH2o(uint64_t seed, int64_t rows, int64_t k,
                                             const std::string& dir);

/// The serving table t(id, grp, v, f) as one FPQ file, t.fpq.
Result<std::vector<std::string>> GenerateServing(uint64_t seed, int64_t rows,
                                                 const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_DATAGEN_H_
