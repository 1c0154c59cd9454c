// Unit tests for common/csv.h.
#include <gtest/gtest.h>

#include <sstream>

#include "common/csv.h"

namespace rdsim {
namespace {

TEST(Csv, SimpleRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("a", 1, 2.5);
  EXPECT_EQ(out.str(), "a,1,2.5\n");
}

TEST(Csv, QuotesCommas) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("x,y", "plain");
  EXPECT_EQ(out.str(), "\"x,y\",plain\n");
}

TEST(Csv, EscapesQuotes) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("say \"hi\"");
  EXPECT_EQ(out.str(), "\"say \"\"hi\"\"\"\n");
}

TEST(Csv, RowVec) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row_vec({"a", "b", "c"});
  EXPECT_EQ(out.str(), "a,b,c\n");
}

TEST(Csv, EmptyRow) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row_vec({});
  EXPECT_EQ(out.str(), "\n");
}

}  // namespace
}  // namespace rdsim
