#include "common/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/logging.h"

namespace ads::common {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  ADS_CHECK(cells.size() == headers_.size()) << "row arity mismatch";
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

std::string Table::ToText() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << "| " << row[c];
      os << std::string(widths[c] - row[c].size() + 1, ' ');
    }
    os << "|\n";
  };
  emit_row(headers_);
  for (size_t c = 0; c < headers_.size(); ++c) {
    os << "|" << std::string(widths[c] + 2, '-');
  }
  os << "|\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

void Table::Print(const std::string& title) const {
  if (!title.empty()) {
    std::printf("\n== %s ==\n", title.c_str());
  }
  std::printf("%s", ToText().c_str());
  std::fflush(stdout);
}

}  // namespace ads::common
