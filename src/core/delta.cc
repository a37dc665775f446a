#include "core/delta.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/hash.h"
#include "util/logging.h"

namespace pc::core {

namespace {

constexpr char kPayloadMagic[4] = {'P', 'C', 'D', '1'};
constexpr char kFrameMagic[4] = {'P', 'C', 'F', '1'};
/** magic + fromVersion + toVersion + three op counts. */
constexpr std::size_t kHeaderBytes = 4 + 8 + 8 + 4 * 3;
/** Add/re-rank record: pair ids + score bits + volume. */
constexpr std::size_t kScoredBytes = 4 + 4 + 8 + 8;
/** Evict record: pair ids only. */
constexpr std::size_t kEvictBytes = 4 + 4;

/** encodeDelta() size for these op counts (u64: no overflow). */
constexpr u64
payloadBytes(u64 adds, u64 evicts, u64 reranks)
{
    return kHeaderBytes + (adds + reranks) * kScoredBytes +
           evicts * kEvictBytes;
}

/** Dense key of a universe pair (query and result ids are u32). */
u64
pairKey(const workload::PairRef &p)
{
    return (u64(p.query) << 32) | u64(p.result);
}

/** Server-side match key of a table pair (same as cache_manager). */
u64
matchKey(u64 query_fnv, u64 url_hash)
{
    return hashCombine(query_fnv, url_hash);
}

bool
pairInRange(const workload::PairRef &p, const QueryUniverse &u)
{
    return p.query < u.numQueries() && p.result < u.numResults();
}

} // namespace

CommunityDelta
diffContents(const CacheContents &from, const CacheContents &to,
             u64 from_version, u64 to_version)
{
    CommunityDelta d;
    d.fromVersion = from_version;
    d.toVersion = to_version;
    if (from.pairs.empty()) {
        // Full install: every target pair is an add, in `to` order —
        // what the general path yields, without its two hash sets.
        d.adds = to.pairs;
        return d;
    }

    std::unordered_map<u64, const ScoredPair *> base;
    base.reserve(from.pairs.size());
    for (const auto &sp : from.pairs)
        base.emplace(pairKey(sp.pair), &sp);

    std::unordered_set<u64> target;
    target.reserve(to.pairs.size());
    for (const auto &sp : to.pairs) {
        target.insert(pairKey(sp.pair));
        const auto it = base.find(pairKey(sp.pair));
        if (it == base.end())
            d.adds.push_back(sp);
        else if (it->second->score != sp.score)
            d.reranks.push_back(sp);
    }
    for (const auto &sp : from.pairs) {
        if (!target.count(pairKey(sp.pair)))
            d.evicts.push_back(sp.pair);
    }
    return d;
}

DeltaApplyResult
tryApplyCommunityDelta(PocketSearch &ps, const CommunityDelta &delta,
                       SimTime &time)
{
    DeltaApplyResult res;
    const QueryUniverse &u = ps.universe();
    const bool fullInstall = delta.fromVersion == 0;

    // Validate: every pair id must be interpretable and every
    // evict/re-rank target must resolve in the live table. Nothing is
    // mutated until the whole delta checks out.
    const auto invalid = [&](const workload::PairRef &p,
                             DeltaApplyError missing) {
        if (!pairInRange(p, u))
            res.error = DeltaApplyError::BadPairId;
        else if (missing != DeltaApplyError::None && !ps.findPair(p))
            res.error = missing;
        return res.error != DeltaApplyError::None;
    };
    for (const auto &sp : delta.adds)
        if (invalid(sp.pair, DeltaApplyError::None))
            return res;
    for (const auto &p : delta.evicts)
        if (invalid(p, DeltaApplyError::MissingEvictTarget))
            return res;
    for (const auto &sp : delta.reranks)
        if (invalid(sp.pair, DeltaApplyError::MissingRerankTarget))
            return res;

    // Commit. Every operation below was proven to resolve, so the
    // sequence cannot fail part-way for state reasons.
    DeltaApplyStats &stats = res.stats;

    if (fullInstall && ps.pairs() > 0) {
        // Full install onto a non-empty cache: reconcile. Community
        // pairs the user never touched and the target no longer lists
        // are stale — drop them so the device converges to the target
        // model. User-accessed pairs follow the retention rule.
        std::unordered_set<u64> wanted;
        wanted.reserve(delta.adds.size());
        for (const auto &sp : delta.adds) {
            const auto &q = u.query(sp.pair.query);
            const auto &r = u.result(sp.pair.result);
            wanted.insert(matchKey(fnv1a(q.text), urlHash(r.url)));
        }
        struct Unwanted
        {
            u64 qfnv;
            u64 urlHash;
            bool accessed;
        };
        std::vector<Unwanted> unwanted;
        ps.table().forEachPair([&](u64 qfnv, const ResultRef &r) {
            if (!wanted.count(matchKey(qfnv, r.urlHash)))
                unwanted.push_back(Unwanted{qfnv, r.urlHash, r.userAccessed});
        });
        // The table only exposes hashes; map them back to pair ids the
        // way the server does (cache_manager's reverse map), over just
        // the queries the unwanted pairs belong to.
        std::unordered_set<u64> queries;
        for (const auto &uw : unwanted)
            queries.insert(uw.qfnv);
        std::unordered_map<u64, workload::PairRef> reverse;
        for (u32 qid = 0; !queries.empty() && qid < u.numQueries(); ++qid) {
            const u64 qh = fnv1a(u.query(qid).text);
            if (!queries.count(qh))
                continue;
            for (const auto &[rid, w] : u.query(qid).results) {
                (void)w;
                reverse.emplace(matchKey(qh, urlHash(u.result(rid).url)),
                                workload::PairRef{qid, rid});
            }
        }
        for (const auto &uw : unwanted) {
            const auto it = reverse.find(matchKey(uw.qfnv, uw.urlHash));
            if (it == reverse.end()) {
                pc_warn("unmatchable device pair in reconcile");
                continue;
            }
            if (uw.accessed) {
                ++stats.keptAccessed;
                continue;
            }
            ps.evictPair(it->second);
            ++stats.staleEvicted;
        }
    }

    // Adds go in as one batch. A conflict (the pair is already cached)
    // merges by maximum score, except that a full install sets a pair
    // the user never accessed to the target's score, lower or higher:
    // the target model is the whole truth about community pairs. The
    // staged suggest entries are already flushed, so setPairScore's
    // resync sees the whole batch.
    std::vector<InstallItem> items;
    items.reserve(delta.adds.size());
    for (const auto &sp : delta.adds)
        items.push_back(InstallItem{sp.pair, sp.score, false});
    const InstallResult installed = ps.installPairs(items, time);
    stats.added = installed.inserted;
    stats.recordsPatched = installed.records;
    stats.conflicts = installed.conflicts.size();
    for (const std::size_t i : installed.conflicts) {
        const ScoredPair &sp = delta.adds[i];
        const ResultRef cached = *ps.findPair(sp.pair);
        const bool converge = fullInstall && !cached.userAccessed;
        if (converge ? sp.score != cached.score : sp.score > cached.score)
            ps.setPairScore(sp.pair, sp.score);
    }

    for (const auto &p : delta.evicts) {
        const auto existing = ps.findPair(p);
        if (existing.has_value() && existing->userAccessed) {
            ++stats.keptAccessed;
            continue;
        }
        if (ps.evictPair(p))
            ++stats.evicted;
    }

    for (const auto &sp : delta.reranks) {
        const auto existing = ps.findPair(sp.pair);
        if (!existing.has_value())
            continue;
        // Accessed pairs only ratchet upward; the user's clicks
        // outrank the community's demotion.
        const double score = existing->userAccessed
                                 ? std::max(existing->score, sp.score)
                                 : sp.score;
        ps.setPairScore(sp.pair, score);
        ++stats.reranked;
    }

    res.ok = true;
    return res;
}

std::string
encodeDelta(const CommunityDelta &delta)
{
    std::string out;
    out.reserve(payloadBytes(delta.adds.size(), delta.evicts.size(),
                             delta.reranks.size()));
    out.append(kPayloadMagic, 4);
    appendRaw<u64>(out, delta.fromVersion);
    appendRaw<u64>(out, delta.toVersion);
    appendRaw<u32>(out, u32(delta.adds.size()));
    appendRaw<u32>(out, u32(delta.evicts.size()));
    appendRaw<u32>(out, u32(delta.reranks.size()));
    const auto putScored = [&](const ScoredPair &sp) {
        appendRaw<u32>(out, sp.pair.query);
        appendRaw<u32>(out, sp.pair.result);
        appendRaw<double>(out, sp.score);
        appendRaw<u64>(out, sp.volume);
    };
    for (const auto &sp : delta.adds)
        putScored(sp);
    for (const auto &p : delta.evicts) {
        appendRaw<u32>(out, p.query);
        appendRaw<u32>(out, p.result);
    }
    for (const auto &sp : delta.reranks)
        putScored(sp);
    return out;
}

std::optional<CommunityDelta>
decodeDelta(std::string_view payload)
{
    if (payload.size() < kHeaderBytes ||
        std::memcmp(payload.data(), kPayloadMagic, 4) != 0)
        return std::nullopt;
    const char *p = payload.data() + 4;
    CommunityDelta d;
    d.fromVersion = loadRaw<u64>(p);
    d.toVersion = loadRaw<u64>(p + 8);
    const u32 adds = loadRaw<u32>(p + 16);
    const u32 evicts = loadRaw<u32>(p + 20);
    const u32 reranks = loadRaw<u32>(p + 24);
    // Length check before any allocation: a corrupted count cannot
    // trigger a huge reserve. u64 arithmetic avoids overflow.
    if (payload.size() != payloadBytes(adds, evicts, reranks))
        return std::nullopt;

    p = payload.data() + kHeaderBytes;
    const auto getScored = [&p] {
        ScoredPair sp;
        sp.pair.query = loadRaw<u32>(p);
        sp.pair.result = loadRaw<u32>(p + 4);
        sp.score = loadRaw<double>(p + 8);
        sp.volume = loadRaw<u64>(p + 16);
        p += kScoredBytes;
        return sp;
    };
    d.adds.reserve(adds);
    for (u32 i = 0; i < adds; ++i)
        d.adds.push_back(getScored());
    d.evicts.reserve(evicts);
    for (u32 i = 0; i < evicts; ++i) {
        d.evicts.push_back(
            workload::PairRef{loadRaw<u32>(p), loadRaw<u32>(p + 4)});
        p += kEvictBytes;
    }
    d.reranks.reserve(reranks);
    for (u32 i = 0; i < reranks; ++i)
        d.reranks.push_back(getScored());
    return d;
}

std::string
frameDelta(const CommunityDelta &delta)
{
    const std::string payload = encodeDelta(delta);
    std::string out;
    out.reserve(payload.size() + kDeltaFrameOverhead);
    out.append(kFrameMagic, 4);
    appendRaw<u32>(out, u32(payload.size()));
    out.append(payload);
    appendRaw<u32>(out, crc32(payload));
    return out;
}

const char *
frameErrorName(FrameError e)
{
    switch (e) {
      case FrameError::None: return "crc_ok";
      case FrameError::TooShort: return "crc_too_short";
      case FrameError::BadMagic: return "crc_bad_magic";
      case FrameError::LengthMismatch: return "crc_length_mismatch";
      case FrameError::BadChecksum: return "crc_bad_checksum";
      case FrameError::BadPayload: return "crc_bad_payload";
    }
    return "?";
}

std::optional<CommunityDelta>
unframeDelta(std::string_view frame, FrameError *error)
{
    *error = FrameError::None;
    if (frame.size() < kDeltaFrameOverhead) {
        *error = FrameError::TooShort;
        return std::nullopt;
    }
    if (std::memcmp(frame.data(), kFrameMagic, 4) != 0) {
        *error = FrameError::BadMagic;
        return std::nullopt;
    }
    const u32 len = loadRaw<u32>(frame.data() + 4);
    if (frame.size() != std::size_t(len) + kDeltaFrameOverhead) {
        *error = FrameError::LengthMismatch;
        return std::nullopt;
    }
    const std::string_view payload = frame.substr(8, len);
    if (loadRaw<u32>(frame.data() + 8 + len) != crc32(payload)) {
        *error = FrameError::BadChecksum;
        return std::nullopt;
    }
    auto delta = decodeDelta(payload);
    if (!delta)
        *error = FrameError::BadPayload;
    return delta;
}

Bytes
deltaWireBytes(const CommunityDelta &delta, const QueryUniverse &universe)
{
    Bytes bytes = payloadBytes(delta.adds.size(), delta.evicts.size(),
                               delta.reranks.size()) +
                  kDeltaFrameOverhead;
    // Result records ship once per distinct result (the patch files
    // are per result, not per pair); ids outside the universe are
    // synthetic test pairs and carry no record.
    std::vector<bool> shipped(universe.numResults());
    for (const auto &sp : delta.adds) {
        const u32 rid = sp.pair.result;
        if (rid < universe.numResults() && !shipped[rid]) {
            shipped[rid] = true;
            bytes += QueryUniverse::recordSize(universe.result(rid));
        }
    }
    return bytes;
}

} // namespace pc::core
