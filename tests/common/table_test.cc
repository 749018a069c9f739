#include "common/table.h"

#include <gtest/gtest.h>

namespace ads::common {
namespace {

TEST(TableTest, RendersAlignedText) {
  Table t({"name", "value"});
  t.AddRow({"alpha", "1"});
  t.AddRow({"b", "12345"});
  std::string text = t.ToText();
  EXPECT_NE(text.find("| name"), std::string::npos);
  EXPECT_NE(text.find("| alpha"), std::string::npos);
  EXPECT_NE(text.find("| 12345"), std::string::npos);
  // Separator row present.
  EXPECT_NE(text.find("|---"), std::string::npos);
}

TEST(TableTest, NumFormatting) {
  EXPECT_EQ(Table::Num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::Num(2.0, 0), "2");
}

TEST(TableTest, PctFormatting) {
  EXPECT_EQ(Table::Pct(0.345), "34.5%");
  EXPECT_EQ(Table::Pct(1.0, 0), "100%");
}

}  // namespace
}  // namespace ads::common
