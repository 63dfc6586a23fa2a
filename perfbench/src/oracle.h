// Result comparison. An answer is a list of rows of cells; integers,
// decimals, dates and strings compare exactly, floats within a small
// relative tolerance. Rows compare as multisets, except that rows tied
// with a LIMIT boundary compare on their ORDER BY columns only.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <string>
#include <vector>

#include "arrow/record_batch.h"
#include "bench_util.h"

namespace perfbench {

/// One result row, stored compactly: `text` holds every cell, each
/// prefixed by its kind ('n' null, 's' exact text, 'f' float) and
/// separated by \x1f; the float values themselves are in `floats`, in
/// column order.
struct Row {
  std::string text;
  std::vector<double> floats;
};

struct Answer {
  std::vector<std::string> names;
  std::vector<Row> rows;  ///< in the order the engine returned them
  /// True once rows are in canonical order (see SortAnswer).
  bool sorted = false;
};

Answer ToAnswer(const std::vector<fusion::RecordBatchPtr>& batches);

/// Line-oriented text form, used to cache baseline answers on disk.
std::string SerializeAnswer(const Answer& answer);
Result<Answer> ParseAnswer(const std::string& text);

/// What the query's top-level ORDER BY / LIMIT say about ties.
struct OrderSpec {
  bool has_limit = false;
  bool has_offset = false;
  /// Output columns of the ORDER BY items; valid when keys_mapped.
  std::vector<int> key_cols;
  /// False when an ORDER BY item is not an output column; the rows
  /// then compare in full (the inputs make such orders unique).
  bool keys_mapped = true;
};
OrderSpec ParseOrderSpec(const std::string& sql, const std::vector<std::string>& names);

/// Empty when `actual` matches `expected`, else a short description.
std::string CompareAnswers(const Answer& expected, const Answer& actual,
                           const OrderSpec& spec);

/// Puts the rows of an expected answer whose order the comparison
/// ignores into canonical order once, so later comparisons need not.
void SortAnswer(Answer* answer, const OrderSpec& spec);

/// The text of a one-cell answer's value ("" when not one cell).
std::string SingleValue(const Answer& answer);

/// Changes one value of `answer` (or drops its last row), for the
/// benchmark's self-test of the oracle.
void CorruptAnswer(Answer* answer);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
