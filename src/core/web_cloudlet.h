/**
 * @file
 * PocketWeb — the web-content pocket cloudlet (footnote 2 and
 * Section 3.2 of the paper).
 *
 * Caches full landing pages so browsing, not just searching, is served
 * from flash. The paper's data-management policy drives the design:
 *
 *  - *Static* content is refreshed in bulk only while charging on
 *    cheap links (the overnight push).
 *  - *Dynamic* content (news, stock prices) goes stale quickly, and
 *    bulk-refreshing it over the radio is infeasible — but "70% of web
 *    visits tend to be revisits to less than a couple of tens of web
 *    pages for more than 50% of the users", so only the user's
 *    most-revisited dynamic pages are refreshed in real time over the
 *    radio, at a tiny bandwidth cost.
 *
 * A visit hits when the page is cached *and fresh*: static pages are
 * always fresh enough; dynamic pages must be inside the real-time
 * refresh set or refreshed since their last change.
 */

#ifndef PC_CORE_WEB_CLOUDLET_H
#define PC_CORE_WEB_CLOUDLET_H

#include <string>
#include <unordered_map>
#include <vector>

#include "core/cloudlet.h"
#include "simfs/flash_store.h"
#include "util/types.h"

namespace pc::core {

/** Web cloudlet configuration. */
struct WebCloudletConfig
{
    /** Full page size (Table 2: ~1.5 MB for www.cnn.com). */
    Bytes pageSize = Bytes(1.5 * double(kMiB));
    /** Average update payload when refreshing a dynamic page. */
    Bytes refreshPayload = 64 * kKiB;
    /** How many most-revisited dynamic pages refresh in real time. */
    u32 realtimeSetSize = 20;
    /** How often dynamic content changes (staleness horizon). */
    SimTime dynamicChangePeriod = 6ll * 3600 * kSecond;
    /** Flash page fetch latency (sequential read of a cached page). */
    SimTime fetchLatency = 120 * kMillisecond;
    /** Per-entry index bytes. */
    Bytes indexEntryBytes = 48;
};

/** Per-page cache state. */
struct CachedPage
{
    bool dynamic = false;     ///< Changes frequently (news, prices).
    u64 visits = 0;           ///< Revisit counter (drives the RT set).
    SimTime lastRefresh = 0;  ///< When content was last fetched/pushed.
    bool inRealtimeSet = false;
};

/** Serving statistics split the paper's way. */
struct WebServeStats
{
    u64 visits = 0;
    u64 hitsFresh = 0;      ///< Cached and fresh: served from flash.
    u64 missUncached = 0;   ///< Page not cached at all.
    u64 missStale = 0;      ///< Cached but stale dynamic content.
    Bytes realtimeBytes = 0; ///< Radio bytes spent on RT refreshes.
};

/**
 * URL-keyed full-page cache with the Section 3.2 freshness policy.
 */
class WebContentCloudlet : public Cloudlet
{
  public:
    /** @param store Flash store for page payloads; must outlive this. */
    explicit WebContentCloudlet(pc::simfs::FlashStore &store,
                                const WebCloudletConfig &cfg = {});

    std::string name() const override { return "web"; }
    Bytes indexBytes() const override;
    Bytes dataBytes() const override;
    u64 lookups() const override { return stats_.visits; }
    u64 hits() const override { return stats_.hitsFresh; }
    Bytes shrinkTo(Bytes data_budget) override;

    /**
     * Install a page (overnight push or caching after a visit).
     * @param[out] time Accumulates flash write latency.
     */
    void installPage(const std::string &url, bool dynamic, SimTime now,
                     SimTime &time);

    /**
     * Serve a visit at simulated time `now`.
     * @param[out] time Accumulates flash fetch latency on a hit.
     * @return True when served locally (cached and fresh).
     */
    bool visit(const std::string &url, SimTime now, SimTime &time);

    /**
     * Background tick: real-time refresh of the top revisited dynamic
     * pages (call periodically, e.g. every simulated hour). Accounts
     * the radio bytes it costs.
     */
    void realtimeRefresh(SimTime now);

    /**
     * Radio bytes a *bulk* refresh of all cached dynamic pages would
     * cost — the infeasible alternative the paper rules out.
     */
    Bytes bulkRefreshBytes() const;

    /** Recompute the real-time set from revisit counts (nightly). */
    void recomputeRealtimeSet();

    /** Cached page count. */
    std::size_t pages() const { return pages_.size(); }

    /** Per-policy statistics. */
    const WebServeStats &stats() const { return stats_; }

  private:
    bool isFresh(const CachedPage &p, SimTime now) const;

    pc::simfs::FlashStore &store_;
    WebCloudletConfig cfg_;
    pc::simfs::FileId file_;
    std::unordered_map<std::string, CachedPage> pages_;
    WebServeStats stats_;
};

} // namespace pc::core

#endif // PC_CORE_WEB_CLOUDLET_H
