#include "core/answer_table.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/rng.h"
#include "test_fixtures.h"

namespace cqads::core {
namespace {

class AnswerTableTest : public ::testing::Test {
 protected:
  AnswerTableTest() : table_(cqads::testing::MiniCarTable()) {
    EXPECT_TRUE(engine_.AddDomain(&table_, qlog::TiMatrix()).ok());
  }
  db::Table table_;
  CqadsEngine engine_;
};

TEST_F(AnswerTableTest, TextTableHasHeaderAndRows) {
  auto result = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(result.ok());
  std::string text = FormatAnswersText(table_, result.value());
  EXPECT_NE(text.find("match"), std::string::npos);
  EXPECT_NE(text.find("make"), std::string::npos);
  EXPECT_NE(text.find("exact"), std::string::npos);
  EXPECT_NE(text.find("honda"), std::string::npos);
  // Header separator present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST_F(AnswerTableTest, MaxRowsTruncatesWithEllipsis) {
  auto result = engine_.AskInDomain("cars", "cheapest");
  ASSERT_TRUE(result.ok());
  AnswerTableOptions opts;
  opts.max_rows = 2;
  std::string text = FormatAnswersText(table_, result.value(), opts);
  EXPECT_NE(text.find("... "), std::string::npos);
  EXPECT_NE(text.find(" more"), std::string::npos);
}

TEST_F(AnswerTableTest, PartialRowsShowMeasure) {
  auto result = engine_.AskInDomain(
      "cars", "honda accord blue less than 15000 dollars");
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result.value().answers.size(), result.value().exact_count);
  std::string text = FormatAnswersText(table_, result.value());
  EXPECT_NE(text.find("partial"), std::string::npos);
  EXPECT_NE(text.find("Num_Sim on Price"), std::string::npos);
}

TEST_F(AnswerTableTest, ContradictionMessage) {
  auto result = engine_.AskInDomain(
      "cars", "accord price below 2000 and price above 9000");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(FormatAnswersText(table_, result.value()),
            "search retrieved no results\n");
  EXPECT_EQ(FormatAnswersHtml(table_, result.value()),
            "<p>search retrieved no results</p>\n");
}

TEST_F(AnswerTableTest, HtmlTableWellFormed) {
  auto result = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(result.ok());
  std::string html = FormatAnswersHtml(table_, result.value());
  EXPECT_EQ(html.find("<table>"), 0u);
  EXPECT_NE(html.find("</table>"), std::string::npos);
  // Tag balance.
  auto count = [&](const char* needle) {
    std::size_t n = 0, pos = 0;
    while ((pos = html.find(needle, pos)) != std::string::npos) {
      ++n;
      pos += 1;
    }
    return n;
  };
  EXPECT_EQ(count("<tr>"), count("</tr>"));
  EXPECT_EQ(count("<td>"), count("</td>"));
  EXPECT_EQ(count("<th>"), count("</th>"));
}

TEST(HtmlEscapeTest, EscapesSpecials) {
  EXPECT_EQ(HtmlEscape("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
  EXPECT_EQ(HtmlEscape("plain"), "plain");
}

TEST_F(AnswerTableTest, MaxAttributesLimitsColumns) {
  auto result = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(result.ok());
  AnswerTableOptions opts;
  opts.max_attributes = 2;
  std::string text = FormatAnswersText(table_, result.value(), opts);
  EXPECT_NE(text.find("model"), std::string::npos);
  EXPECT_EQ(text.find("features"), std::string::npos);
}

TEST_F(AnswerTableTest, RankSimColumnOptional) {
  auto result = engine_.AskInDomain("cars", "blue honda accord");
  ASSERT_TRUE(result.ok());
  AnswerTableOptions opts;
  opts.show_rank_sim = false;
  std::string text = FormatAnswersText(table_, result.value(), opts);
  EXPECT_EQ(text.find("rank_sim"), std::string::npos);
}

/// The ostringstream rendering CanonicalAskResultString used before it
/// moved to std::to_chars: the oracle its bytes must keep matching.
std::string OstreamCanonical(const AskResult& result) {
  std::ostringstream os;
  os.precision(17);
  os << "domain=" << result.domain << '\n'
     << "sql=" << result.sql << '\n'
     << "interpretation=" << result.interpretation << '\n'
     << "contradiction=" << (result.contradiction ? 1 : 0) << '\n'
     << "exact_count=" << result.exact_count << '\n';
  for (const Answer& a : result.answers) {
    os << "row=" << a.row << " exact=" << (a.exact ? 1 : 0)
       << " rank_sim=" << a.rank_sim << " measure=" << a.measure << '\n';
  }
  return os.str();
}

TEST(CanonicalStringTest, MatchesOstreamRenderingOnAwkwardDoubles) {
  const double kDoubles[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      2.0,
      3.0,
      30.0,
      1e15,
      123456789012345678.0,
      1e300,
      -1e300,
      1e-300,
      -1e-300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 3.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      std::numeric_limits<double>::epsilon(),
      0.1,
      1.0 / 3.0,
      2.0 + 1.0 / 3.0,
      0.30000000000000004,
      9007199254740993.0,
      1e16,
      1e17,
      1e-5,
      0.0001,
      123.456,
  };
  AskResult result;
  result.domain = "cars";
  result.sql = "SELECT * FROM cars WHERE price < 9000";
  result.interpretation = "price < 9000";
  result.contradiction = true;
  result.exact_count = 2;
  db::RowId row = 0;
  for (double v : kDoubles) {
    result.answers.push_back(Answer{row, row % 2 == 0, v, "Num_Sim on Price"});
    ++row;
  }
  // Random bit patterns cover values that need all 17 digits.
  Rng rng(1234);
  while (result.answers.size() < 3000) {
    const std::uint64_t bits = rng.engine()();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    if (!std::isfinite(v)) continue;
    result.answers.push_back(
        Answer{std::numeric_limits<db::RowId>::max() - row++, false, v, ""});
  }
  for (int i = 0; i < 1000; ++i) {
    result.answers.push_back(
        Answer{row++, false, 2.0 + rng.UniformReal(0.0, 1.0), "Feat_Sim"});
  }
  EXPECT_EQ(CanonicalAskResultString(result), OstreamCanonical(result));

  AskResult empty;
  EXPECT_EQ(CanonicalAskResultString(empty), OstreamCanonical(empty));
}

TEST_F(AnswerTableTest, CanonicalStringMatchesOstreamRenderingOnAnswers) {
  for (const char* q : {"blue honda accord", "cheap toyota under 9000 dollars",
                        "red car with leather seats", "honda"}) {
    auto result = engine_.AskInDomain("cars", q);
    ASSERT_TRUE(result.ok()) << q;
    EXPECT_EQ(CanonicalAskResultString(result.value()),
              OstreamCanonical(result.value()))
        << q;
  }
}

}  // namespace
}  // namespace cqads::core
