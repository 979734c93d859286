#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace drapid {
namespace {

TEST(CsvParse, SplitsPlainFields) {
  const CsvRow row = parse_csv_line("a,b,c");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a");
  EXPECT_EQ(row[1], "b");
  EXPECT_EQ(row[2], "c");
}

TEST(CsvParse, PreservesEmptyFields) {
  const CsvRow row = parse_csv_line(",x,,");
  ASSERT_EQ(row.size(), 4u);
  EXPECT_EQ(row[0], "");
  EXPECT_EQ(row[1], "x");
  EXPECT_EQ(row[2], "");
  EXPECT_EQ(row[3], "");
}

TEST(CsvParse, QuotedFieldsWithDelimiterAndEscapes) {
  const CsvRow row = parse_csv_line(R"("a,b","say ""hi""",plain)");
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a,b");
  EXPECT_EQ(row[1], "say \"hi\"");
  EXPECT_EQ(row[2], "plain");
}

TEST(CsvParse, ToleratesCrlf) {
  const CsvRow row = parse_csv_line("a,b\r");
  ASSERT_EQ(row.size(), 2u);
  EXPECT_EQ(row[1], "b");
}

TEST(CsvRoundTrip, FormatThenParseIsIdentity) {
  const CsvRow original{"plain", "with,comma", "with\"quote", "", "end"};
  const CsvRow parsed = parse_csv_line(format_csv_row(original));
  EXPECT_EQ(parsed, original);
}

TEST(ParseNumbers, AcceptsPaddedAndRejectsGarbage) {
  EXPECT_DOUBLE_EQ(parse_double("  3.25 "), 3.25);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3"), -1e-3);
  EXPECT_EQ(parse_int(" 42\r"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_double("12abc"), std::runtime_error);
  EXPECT_THROW(parse_double(""), std::runtime_error);
  EXPECT_THROW(parse_int("3.5"), std::runtime_error);
}

}  // namespace
}  // namespace drapid
