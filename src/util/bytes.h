/**
 * @file
 * Fixed-width field helpers shared by every binary format: the
 * hash-table upload, the community delta frame, the community model
 * encoding, the index snapshot and the pc::store slot header.
 *
 * Fields are copied in host byte order; the formats are defined as
 * little-endian, which the static_assert below pins.
 */

#ifndef PC_UTIL_BYTES_H
#define PC_UTIL_BYTES_H

#include <bit>
#include <cstring>
#include <string>

namespace pc {

static_assert(std::endian::native == std::endian::little,
              "the wire and flash formats are little-endian");

/** Append the bytes of `v` to `out`. */
template <typename T>
void
appendRaw(std::string &out, T v)
{
    char buf[sizeof(T)];
    std::memcpy(buf, &v, sizeof(T));
    out.append(buf, sizeof(T));
}

/** Read a T from `p`; the caller has checked that the bytes exist. */
template <typename T>
T
loadRaw(const char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

} // namespace pc

#endif // PC_UTIL_BYTES_H
