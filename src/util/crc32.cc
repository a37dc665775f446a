#include "util/crc32.h"

#include <array>
#include <cstring>

namespace pc {

namespace {

/**
 * Slicing-by-8 tables for the reflected polynomial. Row 0 is the
 * classic byte-at-a-time table; row k advances a byte through k more
 * zero bytes, so eight rows fold eight input bytes per step.
 */
constexpr std::array<std::array<u32, 256>, 8>
makeTables()
{
    std::array<std::array<u32, 256>, 8> t{};
    for (u32 i = 0; i < 256; ++i) {
        u32 c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
        t[0][i] = c;
    }
    for (u32 i = 0; i < 256; ++i)
        for (std::size_t k = 1; k < 8; ++k)
            t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
    return t;
}

constexpr auto kTables = makeTables();

/** Little-endian u32 at `p` (any alignment). */
u32
load32(const unsigned char *p)
{
    return u32(p[0]) | u32(p[1]) << 8 | u32(p[2]) << 16 | u32(p[3]) << 24;
}

} // namespace

u32
crc32(std::string_view data, u32 seed)
{
    const auto &t = kTables;
    auto p = reinterpret_cast<const unsigned char *>(data.data());
    std::size_t n = data.size();
    u32 c = seed ^ 0xFFFFFFFFu;
    for (; n >= 8; n -= 8, p += 8) {
        const u32 lo = load32(p) ^ c;
        const u32 hi = load32(p + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^
            t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
            t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; n > 0; --n, ++p)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace pc
