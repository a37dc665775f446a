#include "baseline/lru_cache.h"

#include "util/logging.h"

namespace pc::baseline {

LruPairCache::LruPairCache(std::size_t capacity)
    : capacity_(capacity)
{
    pc_assert(capacity_ >= 1, "LRU cache needs capacity >= 1");
}

bool
LruPairCache::lookup(const workload::PairRef &p)
{
    auto it = map_.find(key(p));
    if (it == map_.end())
        return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
}

void
LruPairCache::insert(const workload::PairRef &p)
{
    const u64 k = key(p);
    auto it = map_.find(k);
    if (it != map_.end()) {
        order_.splice(order_.begin(), order_, it->second);
        return;
    }
    if (map_.size() >= capacity_) {
        const u64 victim = order_.back();
        order_.pop_back();
        map_.erase(victim);
        ++evictions_;
    }
    order_.push_front(k);
    map_[k] = order_.begin();
}

} // namespace pc::baseline
