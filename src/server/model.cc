#include "server/model.h"

#include "util/bytes.h"

namespace pc::server {

std::string
CommunityModel::encode() const
{
    const auto &rows = table.rows();
    const auto &pairs = contents.pairs;
    std::string out;
    out.reserve(8 + 16 + rows.size() * 16 + pairs.size() * 24 + 64);
    out.append("PCMD", 4);
    appendRaw<u64>(out, version);
    appendRaw<u64>(out, u64(rows.size()));
    for (const auto &row : rows) {
        appendRaw<u32>(out, row.pair.query);
        appendRaw<u32>(out, row.pair.result);
        appendRaw<u64>(out, row.volume);
    }
    appendRaw<u64>(out, u64(pairs.size()));
    for (const auto &sp : pairs) {
        appendRaw<u32>(out, sp.pair.query);
        appendRaw<u32>(out, sp.pair.result);
        appendRaw<double>(out, sp.score);
        appendRaw<u64>(out, sp.volume);
    }
    appendRaw<u64>(out, u64(contents.uniqueResults));
    appendRaw<u64>(out, contents.flashBytes);
    appendRaw<u64>(out, contents.dramBytes);
    appendRaw<double>(out, contents.cumulativeShare);
    return out;
}

} // namespace pc::server
