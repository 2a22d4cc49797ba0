// Tabular output: CSV files for figure data series and aligned text tables
// for paper-table reproductions printed by the benches.
#pragma once

#include <fstream>
#include <string>
#include <vector>

namespace fca {

/// Streams rows to a CSV file. Values are quoted only when necessary.
class CsvWriter {
 public:
  /// Opens (truncates) `path` and writes the header row.
  CsvWriter(const std::string& path, const std::vector<std::string>& header);

  /// Appends one row; must have the same arity as the header.
  void row(const std::vector<std::string>& values);

  const std::string& path() const { return path_; }

 private:
  void write_row(const std::vector<std::string>& values);
  std::string path_;
  std::ofstream out_;
  size_t arity_;
};

/// Accumulates rows and prints an aligned, paper-style text table.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);
  void row(std::vector<std::string> values);
  /// Renders with column alignment; returned string ends with '\n'.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats "mean ± std" with 4 decimals, matching the paper's tables.
std::string format_mean_std(double mean, double stddev);

/// Formats a double with fixed decimals.
std::string format_fixed(double v, int decimals);

}  // namespace fca
