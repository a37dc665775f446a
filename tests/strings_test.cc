/**
 * @file
 * Unit tests for string helpers.
 */

#include <gtest/gtest.h>

#include "util/strings.h"

namespace pc {
namespace {

TEST(Strformat, FormatsLikePrintf)
{
    EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
    EXPECT_EQ(strformat("%.2f", 3.14159), "3.14");
    EXPECT_EQ(strformat("plain"), "plain");
}

TEST(HumanBytes, PicksUnits)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(2 * kKiB), "2.00 KiB");
    EXPECT_EQ(humanBytes(kMiB + kMiB / 2), "1.50 MiB");
    EXPECT_EQ(humanBytes(3 * kGiB), "3.00 GiB");
    EXPECT_EQ(humanBytes(2048 * kGiB), "2.00 TiB");
}

TEST(HumanTime, PicksUnits)
{
    EXPECT_EQ(humanTime(500), "500 ns");
    EXPECT_EQ(humanTime(1500), "1.500 us");
    EXPECT_EQ(humanTime(fromMillis(378)), "378.000 ms");
    EXPECT_EQ(humanTime(6 * kSecond), "6.000 s");
}

TEST(Split, KeepsEmptyFields)
{
    const auto parts = split("a,,b", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[1], "");
    EXPECT_EQ(parts[2], "b");
}

TEST(Split, SingleField)
{
    const auto parts = split("abc", ',');
    ASSERT_EQ(parts.size(), 1u);
    EXPECT_EQ(parts[0], "abc");
}

TEST(Contains, Substrings)
{
    EXPECT_TRUE(contains("www.youtube.com", "youtube"));
    EXPECT_FALSE(contains("www.youtube.com", "facebook"));
    EXPECT_TRUE(contains("abc", ""));
}

TEST(StartsWith, Prefixes)
{
    EXPECT_TRUE(startsWith("www.x.com", "www."));
    EXPECT_FALSE(startsWith("x.com", "www."));
    EXPECT_FALSE(startsWith("ab", "abc"));
}

TEST(StripUrlDecoration, RemovesSchemeAndWww)
{
    EXPECT_EQ(stripUrlDecoration("http://www.youtube.com"), "youtube.com");
    EXPECT_EQ(stripUrlDecoration("https://site.org/p"), "site.org/p");
    EXPECT_EQ(stripUrlDecoration("www.bank.com"), "bank.com");
    EXPECT_EQ(stripUrlDecoration("bare.com"), "bare.com");
}

} // namespace
} // namespace pc
