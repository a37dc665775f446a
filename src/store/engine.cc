#include "store/engine.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/logging.h"
#include "util/strings.h"

namespace pc::store {

namespace {

/** CRC over (len, key, seq, payload) — everything but magic and pad. */
u32
slotCrc(u32 len, u64 key, u64 seq, std::string_view payload)
{
    std::string fields;
    fields.reserve(20);
    appendRaw<u32>(fields, len);
    appendRaw<u64>(fields, key);
    appendRaw<u64>(fields, seq);
    return crc32(payload, crc32(fields));
}

} // namespace

StoreEngine::StoreEngine(pc::simfs::FlashStore &store,
                         const StoreEngineConfig &cfg, std::string prefix)
    : store_(store), cfg_(cfg), prefix_(std::move(prefix)),
      cache_(cfg_.cache), batch_(store, cfg_.batchWindow)
{
    pc_assert(!cfg_.sizeClasses.empty(), "need at least one size class");
    for (std::size_t i = 0; i < cfg_.sizeClasses.size(); ++i) {
        pc_assert(cfg_.sizeClasses[i] > kHeaderSize,
                  "size class must exceed the slot header");
        pc_assert(i == 0 || cfg_.sizeClasses[i] > cfg_.sizeClasses[i - 1],
                  "size classes must ascend");
    }
    pc_assert(cfg_.slotsPerSlab >= 2, "slabs need at least two slots");
    classSlabs_.resize(cfg_.sizeClasses.size());
    nextNameSeq_.assign(cfg_.sizeClasses.size(), 0);
    batch_.onFlush([this](pc::simfs::FileId f, Bytes off, Bytes len) {
        invalidateRange(f, off, len);
    });
    recover();
}

u32
StoreEngine::classFor(Bytes len) const
{
    for (u32 c = 0; c < cfg_.sizeClasses.size(); ++c) {
        if (payloadCap(c) >= len)
            return c;
    }
    return u32(cfg_.sizeClasses.size());
}

std::string
StoreEngine::slabFileName(u32 classIdx, u32 nameSeq) const
{
    return strformat("%s.c%llu.s%06u", prefix_.c_str(),
                     (unsigned long long)slotSize(classIdx), nameSeq);
}

std::string
StoreEngine::encodeSlot(u64 key, u64 seq, std::string_view payload)
{
    std::string s;
    s.reserve(kHeaderSize + payload.size());
    appendRaw<u32>(s, kMagic);
    appendRaw<u32>(s, u32(payload.size()));
    appendRaw<u64>(s, key);
    appendRaw<u64>(s, seq);
    appendRaw<u32>(s, slotCrc(u32(payload.size()), key, seq, payload));
    appendRaw<u32>(s, 0); // pad
    s.append(payload);
    return s;
}

StoreEngine::SlotHeader
StoreEngine::parseSlot(std::string_view bytes)
{
    SlotHeader h;
    if (bytes.size() < kHeaderSize) {
        h.blank = bytes.find_first_not_of('\0') == std::string_view::npos;
        return h;
    }
    const u32 magic = loadRaw<u32>(bytes.data());
    h.len = loadRaw<u32>(bytes.data() + 4);
    h.key = loadRaw<u64>(bytes.data() + 8);
    h.seq = loadRaw<u64>(bytes.data() + 16);
    h.crc = loadRaw<u32>(bytes.data() + 24);
    h.blank = magic == 0 && h.len == 0 && h.key == 0 && h.seq == 0 &&
              h.crc == 0;
    if (magic != kMagic || bytes.size() < kHeaderSize + h.len)
        return h;
    h.valid = slotCrc(h.len, h.key, h.seq,
                      bytes.substr(kHeaderSize, h.len)) == h.crc;
    return h;
}

u32
StoreEngine::newSlab(u32 classIdx)
{
    const u32 nameSeq = nextNameSeq_[classIdx]++;
    const std::string name = slabFileName(classIdx, nameSeq);
    const pc::simfs::FileId f = store_.create(name);
    pc_assert(f != pc::simfs::kNoFile, "slab file name collision: ", name);
    Slab s;
    s.file = f;
    s.classIdx = classIdx;
    s.nameSeq = nameSeq;
    s.slots.assign(cfg_.slotsPerSlab, SlotState::Free);
    slabs_.push_back(std::move(s));
    const u32 id = u32(slabs_.size() - 1);
    classSlabs_[classIdx].push_back(id);
    return id;
}

u32
StoreEngine::fillSlab(u32 classIdx)
{
    auto &list = classSlabs_[classIdx];
    if (!list.empty()) {
        const Slab &s = slabs_[list.back()];
        if (s.live < s.slots.size())
            return list.back();
    }
    return newSlab(classIdx);
}

u32
StoreEngine::takeSlot(Slab &s)
{
    u32 pick = u32(s.slots.size());
    for (u32 i = 0; i < s.slots.size(); ++i) {
        if (s.slots[i] == SlotState::Free) {
            pick = i;
            break;
        }
        if (pick == s.slots.size() && s.slots[i] == SlotState::Dead)
            pick = i;
    }
    pc_assert(pick < s.slots.size(), "takeSlot on a full slab");
    if (s.slots[pick] == SlotState::Dead) {
        pc_assert(s.dead > 0, "slot state desync");
        --s.dead;
    }
    s.slots[pick] = SlotState::Live;
    ++s.live;
    return pick;
}

u32
StoreEngine::pickDestination(u32 classIdx, u32 exclude)
{
    u32 best = u32(slabs_.size());
    double bestWear = 0.0;
    for (u32 id : classSlabs_[classIdx]) {
        if (id == exclude)
            continue;
        const Slab &s = slabs_[id];
        if (s.defunct || s.live >= s.slots.size())
            continue;
        const double wear = store_.avgWear(s.file);
        if (best == slabs_.size() || wear < bestWear) {
            best = id;
            bestWear = wear;
        }
    }
    if (best != slabs_.size())
        return best;
    // No room anywhere: a fresh slab, whose blocks come from the
    // store's allocator (least-worn-first when wear leveling is on).
    return newSlab(classIdx);
}

void
StoreEngine::killSlot(const ItemLoc &loc, SimTime &time)
{
    Slab &s = slabs_[loc.slab];
    pc_assert(s.slots[loc.slot] == SlotState::Live, "killing non-live slot");
    // Zero the header magic in place. NAND-legal (programming only
    // clears bits) and crash-safe: a torn kill leaves the magic
    // partially cleared, which recovery reads as dead either way — and
    // the kill is only queued after its replacement's program, so the
    // budget cannot kill the old version before the new one landed.
    batch_.enqueue(s.file, slotOffset(s, loc.slot),
                   std::string(4, '\0'), time);
    s.slots[loc.slot] = SlotState::Dead;
    pc_assert(s.live > 0, "slot state desync");
    --s.live;
    ++s.dead;
}

bool
StoreEngine::put(u64 key, std::string_view value, SimTime &time)
{
    const u32 c = classFor(value.size());
    if (c >= cfg_.sizeClasses.size())
        return false; // larger than the largest size class
    if (powerLost())
        return false;
    ItemLoc oldLoc;
    bool hadOld = false;
    if (auto old = index_.find(key); old != index_.end()) {
        oldLoc = old->second;
        hadOld = true;
    }
    const u64 seq = ++lastSeq_;
    const u32 slabId = fillSlab(c);
    Slab &s = slabs_[slabId];
    const u32 slot = takeSlot(s);
    batch_.enqueue(s.file, slotOffset(s, slot),
                   encodeSlot(key, seq, value), time);
    index_[key] = ItemLoc{slabId, slot, u32(value.size())};
    liveBytes_ += value.size();
    if (hadOld) {
        liveBytes_ -= oldLoc.len;
        killSlot(oldLoc, time);
        ++stats_.updates;
        maybeGc(oldLoc.slab, time);
    } else {
        ++stats_.puts;
    }
    return true;
}

void
StoreEngine::flush(SimTime &time)
{
    batch_.flush(time);
}

void
StoreEngine::invalidateRange(pc::simfs::FileId file, Bytes offset,
                             Bytes len)
{
    if (len == 0)
        return;
    const Bytes ps = cache_.config().pageSize;
    const u64 p0 = offset / ps;
    const u64 p1 = (offset + len - 1) / ps;
    for (u64 p = p0; p <= p1; ++p)
        cache_.invalidate(u32(file), p);
}

void
StoreEngine::readCached(const Slab &s, Bytes offset, Bytes len,
                        std::string &out, SimTime &time)
{
    const Bytes ps = cache_.config().pageSize;
    if (cache_.config().capacityPages == 0) {
        time += kMissOverhead;
        store_.read(s.file, offset, len, out, time);
        return;
    }
    const u64 p0 = offset / ps;
    const u64 p1 = (offset + len - 1) / ps;
    bool allHit = true;
    for (u64 p = p0; p <= p1; ++p) {
        if (!cache_.contains(u32(s.file), p)) {
            allHit = false;
            break;
        }
    }
    // A fully cached read is a DRAM copy; any missing page pays the
    // block-layer submission once plus the device reads below.
    time += allHit ? kHitOverhead : kMissOverhead;
    out.clear();
    out.reserve(len);
    for (u64 p = p0; p <= p1; ++p) {
        const std::string *page = cache_.lookup(u32(s.file), p);
        std::string fetched;
        if (!page) {
            store_.read(s.file, p * ps, ps, fetched, time);
            cache_.insert(u32(s.file), p, fetched);
            page = &fetched;
        }
        const Bytes pageStart = p * ps;
        const Bytes from = std::max(offset, pageStart);
        const Bytes to = std::min(offset + len, pageStart + ps);
        // The page may be short when the slab file ends inside it
        // (e.g. a torn program dropped the slot's bytes); the caller's
        // checksum verification catches the truncation.
        if (from - pageStart < page->size()) {
            const Bytes upto = std::min(to - pageStart, Bytes(page->size()));
            out.append(*page, from - pageStart, upto - (from - pageStart));
        }
    }
}

bool
StoreEngine::readSlotVerified(const Slab &s, u32 slot, Bytes len,
                              bool useCache, std::string &slotBytes,
                              SimTime &time)
{
    const Bytes off = slotOffset(s, slot);
    const Bytes need = kHeaderSize + len;
    for (u32 attempt = 0; attempt < kMaxReadRetries; ++attempt) {
        std::string bytes;
        if (useCache && attempt == 0) {
            readCached(s, off, need, bytes, time);
        } else {
            // Retry (or GC/recovery) path: a checksum failure may have
            // poisoned the cache with a flipped page — drop those
            // pages and go to the device.
            if (useCache)
                invalidateRange(s.file, off, need);
            time += kMissOverhead;
            store_.read(s.file, off, need, bytes, time);
        }
        const SlotHeader h = parseSlot(bytes);
        if (h.valid && h.len == len) {
            slotBytes = std::move(bytes);
            return true;
        }
        ++stats_.crcRetries;
    }
    return false;
}

bool
StoreEngine::get(u64 key, std::string &out, SimTime &time)
{
    flush(time); // read-your-writes
    ++stats_.gets;
    time += kProbeCost;
    auto it = index_.find(key);
    if (it == index_.end())
        return false;
    const ItemLoc l = it->second;
    std::string slotBytes;
    if (!readSlotVerified(slabs_[l.slab], l.slot, l.len, true, slotBytes,
                          time)) {
        ++stats_.readFailures;
        return false;
    }
    out.assign(slotBytes, kHeaderSize, l.len);
    ++stats_.getHits;
    return true;
}

bool
StoreEngine::contains(u64 key) const
{
    return index_.count(key) != 0;
}

bool
StoreEngine::collectSlab(u32 slabId, SimTime &time)
{
    flush(time);
    if (powerLost()) {
        ++gcStats_.aborted;
        return false;
    }
    struct Move
    {
        u64 key;
        u32 destSlab;
        u32 destSlot;
        u32 len;
    };
    std::vector<Move> moves;
    const u32 classIdx = slabs_[slabId].classIdx;
    const u32 slotCount = u32(slabs_[slabId].slots.size());
    for (u32 slot = 0; slot < slotCount; ++slot) {
        if (slabs_[slabId].slots[slot] != SlotState::Live)
            continue;
        // The index knows only key → loc; GC walks slots, so the key
        // comes from the verified on-flash header.
        std::string region;
        SlotHeader h;
        bool ok = false;
        for (u32 attempt = 0; attempt < kMaxReadRetries; ++attempt) {
            store_.read(slabs_[slabId].file,
                        slotOffset(slabs_[slabId], slot),
                        slotSize(classIdx), region, time);
            h = parseSlot(region);
            if (h.valid) {
                ok = true;
                break;
            }
            ++stats_.crcRetries;
        }
        pc_assert(ok, "GC could not verify a live slot");
        const u32 dest = pickDestination(classIdx, slabId);
        const u32 dslot = takeSlot(slabs_[dest]);
        // Verbatim copy, same seq: if the crash interrupts GC, recovery
        // keeps whichever copy survived (identical bytes either way).
        batch_.enqueue(slabs_[dest].file,
                       slotOffset(slabs_[dest], dslot),
                       region.substr(0, kHeaderSize + h.len), time);
        moves.push_back(Move{h.key, dest, dslot, h.len});
    }
    flush(time);
    if (powerLost()) {
        // The copies never (fully) landed; leave the index on the
        // source slab and hand the destination slots back.
        for (const Move &m : moves) {
            Slab &d = slabs_[m.destSlab];
            d.slots[m.destSlot] = SlotState::Free;
            --d.live;
        }
        ++gcStats_.aborted;
        return false;
    }
    for (const Move &m : moves) {
        index_[m.key] = ItemLoc{m.destSlab, m.destSlot, m.len};
        gcStats_.bytesMoved += m.len;
    }
    Slab &src = slabs_[slabId];
    cache_.invalidateFile(u32(src.file));
    store_.remove(src.file, time); // timed: erase-on-reclaim is charged
    src.defunct = true;
    src.slots.assign(src.slots.size(), SlotState::Free);
    src.live = 0;
    src.dead = 0;
    auto &list = classSlabs_[classIdx];
    list.erase(std::remove(list.begin(), list.end(), slabId), list.end());
    ++gcStats_.collections;
    gcStats_.relocated += moves.size();
    ++gcStats_.slabsReclaimed;
    return true;
}

void
StoreEngine::maybeGc(u32 slabId, SimTime &time)
{
    const Slab &s = slabs_[slabId];
    if (s.defunct)
        return;
    // The fill slab recycles its dead slots on the write path; GC only
    // chases slabs the allocator has moved past.
    const auto &list = classSlabs_[s.classIdx];
    if (!list.empty() && list.back() == slabId)
        return;
    if (double(s.dead) < kGcDeadFraction * double(s.slots.size()))
        return;
    collectSlab(slabId, time);
}

Bytes
StoreEngine::physicalBytes() const
{
    Bytes total = 0;
    for (const Slab &s : slabs_) {
        if (!s.defunct)
            total += store_.physicalSize(s.file);
    }
    return total;
}

std::vector<std::string>
StoreEngine::fileNames() const
{
    std::vector<std::string> names;
    for (const Slab &s : slabs_) {
        if (!s.defunct)
            names.push_back(slabFileName(s.classIdx, s.nameSeq));
    }
    std::sort(names.begin(), names.end());
    return names;
}

void
StoreEngine::recover()
{
    struct Found
    {
        u32 classIdx;
        u32 nameSeq;
        std::string name;
    };
    std::vector<Found> found;
    const std::string stem = prefix_ + ".c";
    for (const std::string &name : store_.listFiles()) {
        if (!startsWith(name, stem))
            continue;
        unsigned long long classSize = 0;
        unsigned nameSeq = 0;
        char trailing = 0;
        const int got =
            std::sscanf(name.c_str() + prefix_.size(), ".c%llu.s%u%c",
                        &classSize, &nameSeq, &trailing);
        if (got != 2)
            continue; // another tenant's file that shares the stem
        u32 classIdx = u32(cfg_.sizeClasses.size());
        for (u32 c = 0; c < cfg_.sizeClasses.size(); ++c) {
            if (cfg_.sizeClasses[c] == classSize) {
                classIdx = c;
                break;
            }
        }
        pc_assert(classIdx < cfg_.sizeClasses.size(),
                  "slab file of unknown size class: ", name);
        found.push_back(Found{classIdx, u32(nameSeq), name});
    }
    std::sort(found.begin(), found.end(),
              [](const Found &a, const Found &b) {
                  return std::tie(a.classIdx, a.nameSeq) <
                         std::tie(b.classIdx, b.nameSeq);
              });

    struct Candidate
    {
        u64 seq;
        u32 slabId;
        u32 slot;
        u32 len;
    };
    std::map<u64, Candidate> best; // key-ordered: deterministic rebuild
    std::vector<std::pair<u32, u32>> candidateSlots;
    for (const Found &f : found) {
        const pc::simfs::FileId file = store_.lookup(f.name);
        pc_assert(file != pc::simfs::kNoFile, "slab vanished mid-attach");
        Slab s;
        s.file = file;
        s.classIdx = f.classIdx;
        s.nameSeq = f.nameSeq;
        s.slots.assign(cfg_.slotsPerSlab, SlotState::Free);
        slabs_.push_back(std::move(s));
        const u32 slabId = u32(slabs_.size() - 1);
        classSlabs_[f.classIdx].push_back(slabId);
        nextNameSeq_[f.classIdx] =
            std::max(nextNameSeq_[f.classIdx], f.nameSeq + 1);

        std::string buf;
        store_.read(file, 0, store_.size(file), buf, recoveryTime_);
        Slab &slab = slabs_[slabId];
        const Bytes ssize = slotSize(f.classIdx);
        for (u32 slot = 0; slot < cfg_.slotsPerSlab; ++slot) {
            const Bytes off = Bytes(slot) * ssize;
            if (off >= buf.size())
                break; // rest of the slab was never programmed
            std::string_view region(buf.data() + off,
                                    std::min<Bytes>(ssize,
                                                    buf.size() - off));
            SlotHeader h = parseSlot(region);
            if (h.blank)
                continue; // Free
            const u32 magic =
                region.size() >= 4 ? loadRaw<u32>(region.data()) : 0;
            if (!h.valid && magic != 0) {
                // Non-blank and not a deliberate kill (kills zero the
                // magic): could be a wear flip in the scan buffer — the
                // stored bytes may be fine. Re-read before giving up.
                std::string fresh;
                for (u32 attempt = 0; attempt < kMaxReadRetries;
                     ++attempt) {
                    store_.read(file, off, ssize, fresh, recoveryTime_);
                    h = parseSlot(fresh);
                    if (h.valid)
                        break;
                    ++stats_.crcRetries;
                }
            }
            if (!h.valid || h.len > payloadCap(f.classIdx)) {
                // A deliberate kill, a torn program, or unrecoverable
                // rot: dead weight until GC.
                slab.slots[slot] = SlotState::Dead;
                ++slab.dead;
                continue;
            }
            lastSeq_ = std::max(lastSeq_, h.seq);
            slab.slots[slot] = SlotState::Dead; // demoted unless it wins
            ++slab.dead;
            candidateSlots.emplace_back(slabId, slot);
            auto it = best.find(h.key);
            if (it == best.end() || h.seq > it->second.seq)
                best[h.key] = Candidate{h.seq, slabId, slot, h.len};
        }
    }
    for (const auto &[key, c] : best) {
        Slab &s = slabs_[c.slabId];
        s.slots[c.slot] = SlotState::Live;
        --s.dead;
        ++s.live;
        index_[key] = ItemLoc{c.slabId, c.slot, c.len};
        liveBytes_ += c.len;
    }
}

} // namespace pc::store
