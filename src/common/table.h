// ASCII table renderer used by the bench harnesses to print rows in the same
// layout as the paper's tables.
#pragma once

#include <string>
#include <vector>

namespace heterog {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Renders the table with column-aligned cells and a header separator.
  std::string render() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (default 3), e.g. "0.462".
std::string fmt_double(double value, int precision = 3);

/// Formats a ratio as a percentage string, e.g. 0.963 -> "96.3%".
std::string fmt_percent(double fraction, int precision = 1);

/// Formats a byte count human-readably ("1.4 GB").
std::string fmt_bytes(long long bytes);

}  // namespace heterog
