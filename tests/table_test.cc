/**
 * @file
 * Unit tests for the ASCII table / CSV emitters.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "util/table.h"

namespace pc {
namespace {

TEST(AsciiTable, RendersAlignedColumns)
{
    AsciiTable t("Demo");
    t.header({"name", "value"});
    t.row({"a", "1"});
    t.row({"longer", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("| name   | value |"), std::string::npos);
    EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(AsciiTable, EmptyTitleOmitsHeaderLine)
{
    AsciiTable t("");
    t.header({"x"});
    std::ostringstream oss;
    t.print(oss);
    EXPECT_EQ(oss.str().find("=="), std::string::npos);
}

TEST(AsciiTableDeath, RowWidthMismatchPanics)
{
    AsciiTable t("d");
    t.header({"a", "b"});
    EXPECT_DEATH(t.row({"only-one"}), "row width");
}

} // namespace
} // namespace pc
