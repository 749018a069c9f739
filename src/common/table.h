#ifndef ADS_COMMON_TABLE_H_
#define ADS_COMMON_TABLE_H_

#include <string>
#include <vector>

namespace ads::common {

/// A simple text table used by the benchmark harnesses to print the rows and
/// series that the paper's figures/claims report. Renders aligned columns to
/// stdout.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must have the same arity as the headers.
  void AddRow(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  static std::string Num(double v, int precision = 3);
  /// Formats a ratio as a percentage string, e.g. 0.34 -> "34.0%".
  static std::string Pct(double fraction, int precision = 1);

  /// Renders the aligned table to a string.
  std::string ToText() const;
  /// Prints ToText() to stdout with an optional title line.
  void Print(const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ads::common

#endif  // ADS_COMMON_TABLE_H_
