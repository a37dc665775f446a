#include "core/web_cloudlet.h"

#include <algorithm>

#include "util/logging.h"

namespace pc::core {

WebContentCloudlet::WebContentCloudlet(pc::simfs::FlashStore &store,
                                       const WebCloudletConfig &cfg)
    : store_(store), cfg_(cfg), file_(store.create("web.dat"))
{
    pc_assert(cfg_.pageSize > 0, "page size must be positive");
}

Bytes
WebContentCloudlet::indexBytes() const
{
    return Bytes(pages_.size()) * cfg_.indexEntryBytes;
}

Bytes
WebContentCloudlet::dataBytes() const
{
    return Bytes(pages_.size()) * cfg_.pageSize;
}

void
WebContentCloudlet::installPage(const std::string &url, bool dynamic,
                                SimTime now, SimTime &time)
{
    auto it = pages_.find(url);
    if (it == pages_.end()) {
        CachedPage p;
        p.dynamic = dynamic;
        p.lastRefresh = now;
        pages_.emplace(url, p);
        store_.append(file_,
                      std::string(std::size_t(cfg_.pageSize), '\0'),
                      time);
    } else {
        it->second.lastRefresh = now;
    }
}

bool
WebContentCloudlet::isFresh(const CachedPage &p, SimTime now) const
{
    if (!p.dynamic)
        return true; // static content tolerates the nightly cadence
    return now - p.lastRefresh < cfg_.dynamicChangePeriod;
}

bool
WebContentCloudlet::visit(const std::string &url, SimTime now,
                          SimTime &time)
{
    ++stats_.visits;
    auto it = pages_.find(url);
    if (it == pages_.end()) {
        ++stats_.missUncached;
        return false;
    }
    ++it->second.visits;
    if (!isFresh(it->second, now)) {
        ++stats_.missStale;
        return false;
    }
    ++stats_.hitsFresh;
    time += cfg_.fetchLatency;
    return true;
}

void
WebContentCloudlet::realtimeRefresh(SimTime now)
{
    for (auto &[url, p] : pages_) {
        (void)url;
        if (!p.dynamic || !p.inRealtimeSet)
            continue;
        if (now - p.lastRefresh >= cfg_.dynamicChangePeriod / 2) {
            p.lastRefresh = now;
            stats_.realtimeBytes += cfg_.refreshPayload;
        }
    }
}

Bytes
WebContentCloudlet::bulkRefreshBytes() const
{
    Bytes total = 0;
    for (const auto &[url, p] : pages_) {
        (void)url;
        if (p.dynamic)
            total += cfg_.pageSize;
    }
    return total;
}

void
WebContentCloudlet::recomputeRealtimeSet()
{
    // Rank dynamic pages by revisit count; the top realtimeSetSize get
    // real-time refreshes (the paper: "only the small set of most
    // frequently visited data is updated in real time").
    std::vector<std::pair<u64, CachedPage *>> dynamic;
    for (auto &[url, p] : pages_) {
        (void)url;
        if (p.dynamic) {
            p.inRealtimeSet = false;
            dynamic.emplace_back(p.visits, &p);
        }
    }
    std::sort(dynamic.begin(), dynamic.end(),
              [](const auto &a, const auto &b) {
                  return a.first > b.first;
              });
    const std::size_t n =
        std::min<std::size_t>(cfg_.realtimeSetSize, dynamic.size());
    for (std::size_t i = 0; i < n; ++i)
        dynamic[i].second->inRealtimeSet = true;
}

Bytes
WebContentCloudlet::shrinkTo(Bytes data_budget)
{
    const u64 keep = data_budget / cfg_.pageSize;
    if (keep >= pages_.size())
        return 0;
    const Bytes before = dataBytes();
    // Evict least-revisited pages first.
    std::vector<std::pair<u64, std::string>> order;
    order.reserve(pages_.size());
    for (const auto &[url, p] : pages_)
        order.emplace_back(p.visits, url);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; pages_.size() > keep && i < order.size();
         ++i)
        pages_.erase(order[i].second);
    SimTime t = 0;
    store_.truncateAndWrite(
        file_, std::string(std::size_t(dataBytes()), '\0'), t);
    return before - dataBytes();
}

} // namespace pc::core
