#include "workload/searchlog.h"

#include <algorithm>
#include <span>

namespace pc::workload {

namespace {

bool
earlier(const LogRecord &a, const LogRecord &b)
{
    return a.time < b.time;
}

/**
 * Stable counting sort of `recs`, whose times lie in [lo, hi], into
 * time buckets through `scratch` (at least recs.size() records). The
 * bucket of a time never decreases as the time grows, so afterwards
 * only records sharing a bucket can be out of time order, and those
 * are still in their input order.
 */
void
bucketByTime(std::span<LogRecord> recs, LogRecord *scratch, SimTime lo,
             SimTime hi, std::vector<u32> &counts)
{
    const std::size_t buckets = recs.size() / 4 + 1;
    // Unsigned offsets: hi - lo may exceed SimTime's range.
    const double scale =
        double(buckets) / (double(u64(hi) - u64(lo)) + 1.0);
    const auto bucket = [&](SimTime t) {
        const auto b = std::size_t(double(u64(t) - u64(lo)) * scale);
        return std::min(b, buckets - 1);
    };
    counts.assign(buckets + 1, 0);
    for (const LogRecord &r : recs)
        ++counts[bucket(r.time) + 1];
    for (std::size_t b = 1; b <= buckets; ++b)
        counts[b] += counts[b - 1];
    for (const LogRecord &r : recs)
        scratch[counts[bucket(r.time)]++] = r;
    std::copy(scratch, scratch + recs.size(), recs.begin());
}

} // namespace

void
SearchLog::sortByTime()
{
    // Same order as std::stable_sort by time, in O(n) for a month log:
    // a stable split at the middle time, a bucket pass over each half
    // and one insertion pass. Every step keeps records of equal time in
    // input order, so the result is the stable order whatever the
    // input; the insertion pass hands over to std::stable_sort if the
    // times are too clumped for the buckets to have done the work.
    const std::size_t n = records_.size();
    if (n < 2)
        return;
    const auto [lo_it, hi_it] =
        std::minmax_element(records_.begin(), records_.end(), earlier);
    const SimTime lo = lo_it->time, hi = hi_it->time;
    if (lo == hi)
        return;
    const SimTime mid = SimTime(u64(lo) + (u64(hi) - u64(lo)) / 2);
    const std::size_t low = std::size_t(
        std::count_if(records_.begin(), records_.end(),
                      [mid](const LogRecord &r) { return r.time <= mid; }));

    {
        // One scratch for both halves, the larger half's size: about
        // n/2 records, the buffer std::stable_sort would take.
        std::vector<LogRecord> scratch(std::max(low, n - low));
        std::vector<u32> counts;
        std::size_t lows = 0, highs = 0;
        for (const LogRecord &r : records_) {
            if (r.time <= mid)
                records_[lows++] = r;
            else
                scratch[highs++] = r;
        }
        std::copy(scratch.begin(), scratch.begin() + highs,
                  records_.begin() + lows);
        const std::span<LogRecord> all(records_);
        bucketByTime(all.first(low), scratch.data(), lo, mid, counts);
        bucketByTime(all.subspan(low), scratch.data(), mid + 1, hi, counts);
    }

    std::size_t moves = 0;
    const std::size_t budget = 4 * n;
    for (std::size_t i = 1; i < n; ++i) {
        if (!earlier(records_[i], records_[i - 1]))
            continue;
        const LogRecord r = records_[i];
        std::size_t j = i;
        for (; j > 0 && earlier(r, records_[j - 1]); --j)
            records_[j] = records_[j - 1];
        records_[j] = r;
        moves += i - j;
        if (moves > budget) {
            std::stable_sort(records_.begin(), records_.end(), earlier);
            return;
        }
    }
}

} // namespace pc::workload
