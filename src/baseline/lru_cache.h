/**
 * @file
 * Plain LRU (query, result) cache baseline.
 *
 * A generic client cache with no community warm start and no
 * popularity-aware content selection: it caches whatever the user
 * touches, evicting least-recently-used pairs at a fixed capacity.
 * Comparing it against PocketSearch isolates the value of the
 * community component and of volume-ranked content selection.
 */

#ifndef PC_BASELINE_LRU_CACHE_H
#define PC_BASELINE_LRU_CACHE_H

#include <list>
#include <unordered_map>

#include "workload/universe.h"

namespace pc::baseline {

/**
 * Fixed-capacity LRU cache over (query, result) pairs.
 */
class LruPairCache
{
  public:
    /** @param capacity Maximum pairs held. @pre capacity >= 1. */
    explicit LruPairCache(std::size_t capacity);

    /** True if the pair is cached; refreshes its recency when found. */
    bool lookup(const workload::PairRef &p);

    /** Insert a pair (evicting the LRU victim if full). */
    void insert(const workload::PairRef &p);

    /** Pairs currently held. */
    std::size_t size() const { return map_.size(); }

    /** Capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Evictions so far. */
    u64 evictions() const { return evictions_; }

  private:
    static u64
    key(const workload::PairRef &p)
    {
        return (u64(p.query) << 32) | p.result;
    }

    std::size_t capacity_;
    std::list<u64> order_; ///< MRU at front.
    std::unordered_map<u64, std::list<u64>::iterator> map_;
    u64 evictions_ = 0;
};

} // namespace pc::baseline

#endif // PC_BASELINE_LRU_CACHE_H
