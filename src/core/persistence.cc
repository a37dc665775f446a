#include "core/persistence.h"

#include <cstring>
#include <vector>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/logging.h"

namespace pc::core {

namespace {

constexpr char kMagic[4] = {'P', 'C', 'S', '2'};
constexpr u32 kFormatVersion = 2;
/** magic + version + sequence + pair count. */
constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 4;

template <typename T>
bool
get(std::string_view blob, std::size_t &pos, T &v)
{
    if (pos + sizeof(T) > blob.size())
        return false;
    v = loadRaw<T>(blob.data() + pos);
    pos += sizeof(T);
    return true;
}

/** Fully parsed, checksum-valid snapshot slot. */
struct ParsedSlot
{
    bool valid = false;
    u64 sequence = 0;
    std::vector<SnapshotPair> pairs;
};

std::string
slotName(const std::string &file_name, int slot)
{
    return file_name + (slot == 0 ? ".s0" : ".s1");
}

/** Parse the pair-list section; true iff exactly `count` pairs
 *  fit in blob[pos, end). */
bool
parsePairs(std::string_view blob, std::size_t pos, std::size_t end,
           u32 count, std::vector<SnapshotPair> &out)
{
    out.clear();
    out.reserve(count);
    for (u32 i = 0; i < count; ++i) {
        u16 qlen = 0;
        if (!get(blob, pos, qlen))
            return false;
        if (pos + qlen > end)
            return false;
        SnapshotPair p;
        p.query.assign(blob.substr(pos, qlen));
        pos += qlen;
        u8 accessed = 0;
        if (!get(blob, pos, p.urlHash) || !get(blob, pos, p.score) ||
            !get(blob, pos, accessed))
            return false;
        if (pos > end)
            return false;
        p.accessed = accessed != 0;
        out.push_back(std::move(p));
    }
    return pos == end;
}

/** Validate + parse one slot blob. Never throws, never partial. */
ParsedSlot
parseSlot(std::string_view blob)
{
    ParsedSlot slot;
    if (blob.size() < kHeaderBytes + sizeof(u32))
        return slot;
    if (std::memcmp(blob.data(), kMagic, 4) != 0)
        return slot;
    const std::size_t body = blob.size() - sizeof(u32);
    if (crc32(blob.substr(0, body)) != loadRaw<u32>(blob.data() + body))
        return slot; // torn write or bit rot
    std::size_t pos = 4;
    u32 version = 0;
    u32 count = 0;
    if (!get(blob, pos, version) || version != kFormatVersion)
        return slot;
    if (!get(blob, pos, slot.sequence) || !get(blob, pos, count))
        return slot;
    slot.valid = parsePairs(blob, pos, body, count, slot.pairs);
    return slot;
}

/** Read + parse one slot file; absent files parse as invalid. */
ParsedSlot
loadSlot(pc::simfs::FlashStore &store, const std::string &name,
         SimTime &time)
{
    ParsedSlot slot;
    const pc::simfs::FileId f = store.lookup(name);
    if (f == pc::simfs::kNoFile)
        return slot;
    std::string blob;
    store.read(f, 0, store.size(f), blob, time);
    return parseSlot(blob);
}

/** Serialize the index of `ps` with the given sequence number. */
std::string
buildSlotBlob(PocketSearch &ps, u64 sequence)
{
    // The hash table stores only hashes; the suggest index holds the
    // query strings, so it enumerates the cached queries for us. (With
    // suggestions disabled there are no strings to persist — keep the
    // feature on if snapshots are wanted.)
    const auto suggestions = ps.suggestIndex().suggest("", ~u32(0));

    std::string blob;
    blob.append(kMagic, 4);
    appendRaw<u32>(blob, kFormatVersion);
    appendRaw<u64>(blob, sequence);
    appendRaw<u32>(blob, 0); // pair count, patched below

    u32 pairs = 0;
    for (const auto &sug : suggestions) {
        const auto refs = ps.table().lookup(sug.query);
        for (const auto &r : refs) {
            pc_assert(sug.query.size() < 0x10000, "query too long");
            appendRaw<u16>(blob, u16(sug.query.size()));
            blob.append(sug.query);
            appendRaw<u64>(blob, r.urlHash);
            appendRaw<double>(blob, r.score);
            appendRaw<u8>(blob, r.userAccessed ? 1 : 0);
            ++pairs;
        }
    }
    std::memcpy(blob.data() + kHeaderBytes - sizeof(u32), &pairs,
                sizeof(u32));
    appendRaw<u32>(blob, crc32(blob));
    return blob;
}

} // namespace

PersistResult
persistIndex(PocketSearch &ps, pc::simfs::FlashStore &store,
             const std::string &file_name, SimTime &time)
{
    PersistResult res;

    // Which slot holds the newest valid snapshot? Write the other one,
    // so the good snapshot survives a crash at any byte of this commit.
    const ParsedSlot s0 = loadSlot(store, slotName(file_name, 0), time);
    const ParsedSlot s1 = loadSlot(store, slotName(file_name, 1), time);
    int target = 0;
    u64 last_seq = 0;
    if (s0.valid && (!s1.valid || s0.sequence >= s1.sequence)) {
        target = 1;
        last_seq = s0.sequence;
    } else if (s1.valid) {
        target = 0;
        last_seq = s1.sequence;
    }
    res.sequence = last_seq + 1;
    res.slot = slotName(file_name, target);

    const std::string blob = buildSlotBlob(ps, res.sequence);

    pc::simfs::FileId f = store.lookup(res.slot);
    if (f == pc::simfs::kNoFile) {
        f = store.create(res.slot);
        store.append(f, blob, time);
    } else {
        store.truncateAndWrite(f, blob, time);
    }

    // Verify: read the slot back and re-validate before declaring the
    // commit durable. A crash or bit flip shows up right here.
    std::string check;
    store.read(f, 0, store.size(f), check, time);
    if (check.size() != blob.size()) {
        return res; // torn: the other slot still holds the good state
    }
    const ParsedSlot written = parseSlot(check);
    if (!written.valid || written.sequence != res.sequence)
        return res;

    res.ok = true;
    res.bytes = blob.size();
    return res;
}

RestoreResult
restoreIndex(PocketSearch &ps, pc::simfs::FlashStore &store,
             const std::string &file_name)
{
    RestoreResult res;

    ParsedSlot slots[2];
    for (int i = 0; i < 2; ++i) {
        const std::string name = slotName(file_name, i);
        const pc::simfs::FileId f = store.lookup(name);
        if (f == pc::simfs::kNoFile)
            continue;
        std::string blob;
        store.read(f, 0, store.size(f), blob, res.loadTime);
        res.loadTime +=
            SimTime(blob.size()) * PocketSearch::kIndexParsePerByte;
        slots[i] = parseSlot(blob);
        if (!slots[i].valid)
            ++res.corruptSlots;
    }

    int best = -1;
    for (int i = 0; i < 2; ++i) {
        if (slots[i].valid &&
            (best < 0 || slots[i].sequence > slots[best].sequence))
            best = i;
    }

    if (best < 0)
        return res; // no slot file, or none valid

    ps.restorePairs(slots[best].pairs);
    res.ok = true;
    res.pairs = slots[best].pairs.size();
    res.sequence = slots[best].sequence;
    res.usedFallback = res.corruptSlots > 0;
    return res;
}

} // namespace pc::core
