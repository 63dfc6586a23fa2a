#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string_view>

#include "arrow/array.h"

namespace perfbench {

using namespace fusion;  // NOLINT

namespace {

constexpr char kCellSep = '\x1f';
constexpr char kFloatSep = '\x1e';

// Cell text escapes \\, \n and the two separators.
void AppendEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    if (c == '\\') {
      *out += "\\\\";
    } else if (c == '\n') {
      *out += "\\n";
    } else if (c == kCellSep) {
      *out += "\\u";
    } else if (c == kFloatSep) {
      *out += "\\v";
    } else {
      out->push_back(c);
    }
  }
}

std::string Unescape(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      const char n = s[++i];
      out.push_back(n == 'n' ? '\n' : n == 'u' ? kCellSep : n == 'v' ? kFloatSep : n);
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    const size_t end = text.find(sep, start);
    out.push_back(text.substr(start, end == std::string_view::npos ? end : end - start));
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  return out;
}

bool FloatLess(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return !std::isnan(a) && std::isnan(b);
  return a < b;
}

bool FloatEqual(double a, double b) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;
  return std::fabs(a - b) <= 1e-6 * std::max(std::fabs(a), std::fabs(b)) + 1e-9;
}

/// Rows order by their exact cells first, so that float noise cannot
/// reorder rows whose exact cells differ.
bool RowLess(const Row& a, const Row& b) {
  if (a.text != b.text) return a.text < b.text;
  return std::lexicographical_compare(a.floats.begin(), a.floats.end(), b.floats.begin(),
                                      b.floats.end(), FloatLess);
}

bool RowEqual(const Row& a, const Row& b) {
  if (a.text != b.text || a.floats.size() != b.floats.size()) return false;
  for (size_t i = 0; i < a.floats.size(); ++i) {
    if (!FloatEqual(a.floats[i], b.floats[i])) return false;
  }
  return true;
}

std::string RowString(const Row& row) {
  std::string out = "(";
  size_t f = 0;
  bool first = true;
  for (std::string_view cell : Split(row.text, kCellSep)) {
    if (!first) out += ", ";
    first = false;
    if (cell.empty() || cell[0] == 'n') {
      out += "NULL";
    } else if (cell[0] == 'f' && f < row.floats.size()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.10g", row.floats[f++]);
      out += buf;
    } else {
      out += Unescape(cell.substr(1)).substr(0, 40);
    }
  }
  return out + ")";
}

/// Multiset comparison of two row lists; `expected_sorted` says the
/// expected rows are already in canonical order.
std::string CompareRowSets(const std::vector<Row>& expected, bool expected_sorted,
                           std::vector<Row> actual, const char* what) {
  if (expected.size() != actual.size()) {
    return std::string(what) + ": expected " + std::to_string(expected.size()) +
           " rows, got " + std::to_string(actual.size());
  }
  std::vector<Row> sorted_copy;
  const std::vector<Row>* want = &expected;
  if (!expected_sorted) {
    sorted_copy = expected;
    std::sort(sorted_copy.begin(), sorted_copy.end(), RowLess);
    want = &sorted_copy;
  }
  std::sort(actual.begin(), actual.end(), RowLess);
  for (size_t i = 0; i < actual.size(); ++i) {
    if (!RowEqual((*want)[i], actual[i])) {
      return std::string(what) + ": row " + std::to_string(i) + " expected " +
             RowString((*want)[i]) + ", got " + RowString(actual[i]);
    }
  }
  return "";
}

/// The row made of the cells at `cols`.
Row Project(const Row& row, const std::vector<int>& cols) {
  const auto cells = Split(row.text, kCellSep);
  std::vector<size_t> float_index(cells.size(), 0);
  size_t f = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    float_index[i] = f;
    if (!cells[i].empty() && cells[i][0] == 'f') ++f;
  }
  Row out;
  for (int c : cols) {
    const auto i = static_cast<size_t>(c);
    if (!out.text.empty()) out.text.push_back(kCellSep);
    out.text += cells[i];
    if (!cells[i].empty() && cells[i][0] == 'f') out.floats.push_back(row.floats[float_index[i]]);
  }
  return out;
}

std::string Normalize(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (!std::isspace(static_cast<unsigned char>(c))) {
      out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

/// Position of the last occurrence of keyword `kw` at parenthesis depth
/// 0 in `lower` (a lower-cased query), or npos.
size_t FindTopLevel(const std::string& lower, const std::string& kw) {
  size_t found = std::string::npos;
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < lower.size(); ++i) {
    const char c = lower[i];
    if (c == '\'') in_string = !in_string;
    if (in_string) continue;
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (depth == 0 && lower.compare(i, kw.size(), kw) == 0 &&
        (i == 0 || std::isspace(static_cast<unsigned char>(lower[i - 1])))) {
      found = i;
    }
  }
  return found;
}

}  // namespace

Answer ToAnswer(const std::vector<RecordBatchPtr>& batches) {
  Answer out;
  for (const auto& batch : batches) {
    if (out.names.empty()) {
      for (const auto& field : batch->schema()->fields()) out.names.push_back(field.name());
    }
    for (int64_t i = 0; i < batch->num_rows(); ++i) {
      Row row;
      for (int c = 0; c < batch->num_columns(); ++c) {
        const Array& col = *batch->column(c);
        if (c > 0) row.text.push_back(kCellSep);
        if (col.IsNull(i)) {
          row.text.push_back('n');
        } else if (col.type().id() == TypeId::kFloat64) {
          row.text.push_back('f');
          row.floats.push_back(static_cast<const Float64Array&>(col).Value(i));
        } else {
          row.text.push_back('s');
          AppendEscaped(&row.text, col.ValueToString(i));
        }
      }
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

std::string SerializeAnswer(const Answer& answer) {
  std::string out;
  for (size_t i = 0; i < answer.names.size(); ++i) {
    if (i > 0) out.push_back(kCellSep);
    AppendEscaped(&out, answer.names[i]);
  }
  out += '\n';
  for (const Row& row : answer.rows) {
    out += row.text;
    for (double v : row.floats) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%c%.17g", kFloatSep, v);
      out += buf;
    }
    out += '\n';
  }
  return out;
}

Result<Answer> ParseAnswer(const std::string& text) {
  Answer out;
  std::stringstream ss(text);
  std::string line;
  if (!std::getline(ss, line)) return Status::IOError("empty answer file");
  if (!line.empty()) {
    for (auto name : Split(line, kCellSep)) out.names.push_back(Unescape(name));
  }
  while (std::getline(ss, line)) {
    const auto parts = Split(line, kFloatSep);
    Row row;
    row.text = std::string(parts[0]);
    for (size_t i = 1; i < parts.size(); ++i) {
      row.floats.push_back(std::strtod(std::string(parts[i]).c_str(), nullptr));
    }
    size_t float_cells = 0;
    for (auto cell : Split(row.text, kCellSep)) {
      if (cell.empty() || (cell[0] != 'n' && cell[0] != 's' && cell[0] != 'f')) {
        return Status::IOError("malformed answer cell");
      }
      float_cells += cell[0] == 'f';
    }
    if (float_cells != row.floats.size()) return Status::IOError("malformed answer row");
    out.rows.push_back(std::move(row));
  }
  return out;
}

OrderSpec ParseOrderSpec(const std::string& sql, const std::vector<std::string>& names) {
  OrderSpec spec;
  std::string lower = sql;
  for (char& c : lower) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  for (char& c : lower) {
    if (std::isspace(static_cast<unsigned char>(c))) c = ' ';
  }
  const size_t limit = FindTopLevel(lower, "limit ");
  spec.has_limit = limit != std::string::npos;
  spec.has_offset = FindTopLevel(lower, "offset ") != std::string::npos;
  const size_t order = FindTopLevel(lower, "order by ");
  if (order == std::string::npos) return spec;
  const size_t begin = order + 9;
  const size_t end = limit != std::string::npos && limit > begin ? limit : lower.size();
  std::string items = lower.substr(begin, end - begin);
  // Split on commas at depth 0.
  std::vector<std::string> parts;
  int depth = 0;
  std::string cur;
  for (char c : items) {
    if (c == '(') ++depth;
    if (c == ')') --depth;
    if (c == ',' && depth == 0) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  parts.push_back(cur);
  for (std::string item : parts) {
    for (const char* suffix : {" nulls first", " nulls last", " desc", " asc"}) {
      std::string trimmed = item;
      while (!trimmed.empty() && trimmed.back() == ' ') trimmed.pop_back();
      const std::string sfx = suffix;
      if (trimmed.size() > sfx.size() &&
          trimmed.compare(trimmed.size() - sfx.size(), sfx.size(), sfx) == 0) {
        item = trimmed.substr(0, trimmed.size() - sfx.size());
      }
    }
    const std::string key = Normalize(item);
    int col = -1;
    for (size_t i = 0; i < names.size(); ++i) {
      if (Normalize(names[i]) == key) col = static_cast<int>(i);
    }
    if (col < 0 && !key.empty() &&
        std::all_of(key.begin(), key.end(), [](char c) { return std::isdigit(c); })) {
      col = std::atoi(key.c_str()) - 1;
      if (col >= static_cast<int>(names.size())) col = -1;
    }
    if (col < 0) {
      spec.keys_mapped = false;
      spec.key_cols.clear();
      return spec;
    }
    spec.key_cols.push_back(col);
  }
  return spec;
}

std::string CompareAnswers(const Answer& expected, const Answer& actual,
                           const OrderSpec& spec) {
  if (!spec.has_limit || !spec.keys_mapped || expected.rows.empty()) {
    return CompareRowSets(expected.rows, expected.sorted, actual.rows, "rows");
  }
  if (expected.rows.size() != actual.rows.size()) {
    return "rows: expected " + std::to_string(expected.rows.size()) + " rows, got " +
           std::to_string(actual.rows.size());
  }
  std::vector<Row> expected_keys, actual_keys;
  for (const Row& r : expected.rows) expected_keys.push_back(Project(r, spec.key_cols));
  for (const Row& r : actual.rows) actual_keys.push_back(Project(r, spec.key_cols));
  std::string diff = CompareRowSets(expected_keys, false, actual_keys, "order keys");
  if (!diff.empty()) return diff;
  // Rows tied with a boundary row may legitimately differ beyond their
  // keys; every other row must match in full.
  std::vector<Row> boundaries = {expected_keys.back()};
  if (spec.has_offset) boundaries.push_back(expected_keys.front());
  auto tied = [&](const Row& key) {
    for (const Row& b : boundaries) {
      if (RowEqual(key, b)) return true;
    }
    return false;
  };
  std::vector<Row> expected_inner, actual_inner;
  for (size_t i = 0; i < expected.rows.size(); ++i) {
    if (!tied(expected_keys[i])) expected_inner.push_back(expected.rows[i]);
    if (!tied(actual_keys[i])) actual_inner.push_back(actual.rows[i]);
  }
  return CompareRowSets(expected_inner, false, actual_inner, "rows before the limit boundary");
}

void SortAnswer(Answer* answer, const OrderSpec& spec) {
  if (spec.has_limit && spec.keys_mapped) return;  // the boundary needs engine order
  std::sort(answer->rows.begin(), answer->rows.end(), RowLess);
  answer->sorted = true;
}

std::string SingleValue(const Answer& answer) {
  if (answer.rows.size() != 1 || !answer.rows[0].floats.empty()) return "";
  const std::string& text = answer.rows[0].text;
  if (text.empty() || text[0] != 's' || text.find(kCellSep) != std::string::npos) return "";
  return Unescape(std::string_view(text).substr(1));
}

void CorruptAnswer(Answer* answer) {
  if (answer->rows.empty()) {
    answer->rows.push_back(Row{"sextra", {}});
  } else if (!answer->rows[0].floats.empty()) {
    answer->rows[0].floats[0] = answer->rows[0].floats[0] * 1.01 + 1;
  } else {
    answer->rows[0].text += "#";
  }
}

}  // namespace perfbench
