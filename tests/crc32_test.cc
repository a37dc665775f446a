/**
 * @file
 * Known-answer tests for the CRC-32 used by the snapshot commit
 * protocol. The check values are the standard CRC-32/ISO-HDLC vectors
 * (zlib's crc32 produces the same numbers).
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <string_view>

#include "util/crc32.h"

namespace pc {
namespace {

TEST(Crc32Test, KnownAnswers)
{
    EXPECT_EQ(crc32(""), 0x00000000u);
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u) << "the check value";
    EXPECT_EQ(crc32("a"), 0xE8B7BE43u);
    EXPECT_EQ(crc32("abc"), 0x352441C2u);
    EXPECT_EQ(crc32("The quick brown fox jumps over the lazy dog"),
              0x414FA339u);
}

TEST(Crc32Test, BinaryDataAndNulBytes)
{
    const std::string zeros(4, '\0');
    EXPECT_EQ(crc32(zeros), 0x2144DF1Cu); // standard 4x00 vector
    const std::string ff(4, char(0xFF));
    EXPECT_EQ(crc32(ff), 0xFFFFFFFFu); // standard 4xFF vector
}

TEST(Crc32Test, ChainingMatchesOneShot)
{
    const std::string s = "123456789";
    for (std::size_t split = 0; split <= s.size(); ++split) {
        const u32 first = crc32(s.substr(0, split));
        EXPECT_EQ(crc32(s.substr(split), first), crc32(s))
            << "split at " << split;
    }
}

/** The byte-at-a-time table loop crc32() must reproduce. */
u32
referenceCrc32(std::string_view data, u32 seed)
{
    static const std::array<u32, 256> table = [] {
        std::array<u32, 256> t{};
        for (u32 i = 0; i < 256; ++i) {
            u32 c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
            t[i] = c;
        }
        return t;
    }();
    u32 c = seed ^ 0xFFFFFFFFu;
    for (const char ch : data)
        c = table[(c ^ u8(ch)) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, MatchesByteAtATimeReferenceAtEveryLengthAndOffset)
{
    // Every length through the 8-byte fold and its tail, from every
    // start offset (so no alignment is assumed), seeded and chained.
    constexpr std::size_t kMaxLen = 4100;
    std::string buf(kMaxLen + 8, '\0');
    u64 x = 0x9E3779B97F4A7C15ull;
    for (char &ch : buf) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ch = char(x);
    }
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
            const std::string_view s(buf.data() + offset, len);
            const u32 seed = u32(len * 2654435761u + offset);
            const u32 want = referenceCrc32(s, 0);
            ASSERT_EQ(crc32(s), want)
                << "offset " << offset << " length " << len;
            ASSERT_EQ(crc32(s, seed), referenceCrc32(s, seed))
                << "offset " << offset << " length " << len;
            const std::size_t split = len / 3;
            ASSERT_EQ(crc32(s.substr(split), crc32(s.substr(0, split))),
                      want)
                << "offset " << offset << " length " << len;
        }
    }
}

TEST(Crc32Test, SingleBitFlipChangesChecksum)
{
    std::string data = "pocket cloudlets snapshot payload";
    const u32 clean = crc32(data);
    for (std::size_t byte = 0; byte < data.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string flipped = data;
            flipped[byte] = char(u8(flipped[byte]) ^ (1u << bit));
            EXPECT_NE(crc32(flipped), clean)
                << "flip at byte " << byte << " bit " << bit;
        }
    }
}

} // namespace
} // namespace pc
