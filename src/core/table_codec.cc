#include "core/table_codec.h"

#include <cstring>

#include "util/bytes.h"

namespace pc::core {

namespace {

constexpr char kMagic[4] = {'P', 'C', 'H', 'T'};
constexpr std::size_t kHeaderBytes = 4 + 4; // magic + u32 count
constexpr std::size_t kRecordBytes = 8 + 8 + 8 + 1;

} // namespace

Bytes
wireSize(std::size_t pairs)
{
    return kHeaderBytes + pairs * kRecordBytes;
}

void
appendWireRecord(std::string &out, const WirePair &w)
{
    appendRaw<u64>(out, w.queryFnv);
    appendRaw<u64>(out, w.urlHash);
    appendRaw<double>(out, w.score);
    appendRaw<u8>(out, w.accessed ? 1 : 0);
}

std::string
encodeTable(const QueryHashTable &table)
{
    std::string out;
    out.reserve(wireSize(table.pairs()));
    out.append(kMagic, 4);
    appendRaw<u32>(out, u32(table.pairs()));
    table.forEachPair([&](u64 query_fnv, const ResultRef &r) {
        appendWireRecord(out, toWirePair(query_fnv, r));
    });
    return out;
}

std::optional<std::vector<WirePair>>
decodeTable(std::string_view blob)
{
    if (blob.size() < kHeaderBytes ||
        std::memcmp(blob.data(), kMagic, 4) != 0)
        return std::nullopt;
    const u32 count = loadRaw<u32>(blob.data() + 4);
    if (blob.size() != kHeaderBytes + std::size_t(count) * kRecordBytes)
        return std::nullopt;

    std::vector<WirePair> out;
    out.reserve(count);
    const char *p = blob.data() + kHeaderBytes;
    for (u32 i = 0; i < count; ++i) {
        WirePair w;
        w.queryFnv = loadRaw<u64>(p);
        w.urlHash = loadRaw<u64>(p + 8);
        w.score = loadRaw<double>(p + 16);
        w.accessed = loadRaw<u8>(p + 24) != 0;
        out.push_back(w);
        p += kRecordBytes;
    }
    return out;
}

} // namespace pc::core
