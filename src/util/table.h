// Tabular output for benches and examples: aligned console tables and CSV.
//
// Every figure-reproduction bench prints the paper's series through this so
// output is uniform and machine-parsable with --csv.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace eprons {

/// One cell: string, integer, or floating point (printed with precision).
using Cell = std::variant<std::string, long long, double>;

/// Output encodings shared by every bench/example (--csv, --json flags).
enum class TableFormat { kPretty, kCsv, kJson };

class Table {
 public:
  explicit Table(std::vector<std::string> columns);

  /// Number of cells must equal the number of columns.
  void add_row(std::vector<Cell> row);

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<Cell>& row(std::size_t i) const { return rows_[i]; }

  /// Floating-point cells are printed with this many significant decimals.
  void set_precision(int digits) { precision_ = digits; }

  /// Pretty-prints with aligned columns.
  void print(std::ostream& os) const;
  /// Emits RFC-4180-ish CSV (fields with commas/quotes are quoted).
  void print_csv(std::ostream& os) const;
  /// Emits a JSON array of one object per row, keyed by column name.
  /// Numeric cells keep full precision (the perf-trajectory harness
  /// ingests this; display rounding would lose information).
  void print_json(std::ostream& os) const;

  /// Dispatches on `csv`.
  void print(std::ostream& os, bool csv) const;
  /// Dispatches on `format`.
  void print(std::ostream& os, TableFormat format) const;

 private:
  std::string render_cell(const Cell& cell) const;

  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 3;
};

}  // namespace eprons
