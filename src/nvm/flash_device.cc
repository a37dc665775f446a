#include "nvm/flash_device.h"

#include "util/logging.h"

namespace pc::nvm {

FlashDevice::FlashDevice(const FlashConfig &cfg)
    : cfg_(cfg)
{
    pc_assert(cfg_.pageSize > 0, "flash page size must be positive");
    pc_assert(cfg_.pagesPerBlock > 0, "pages per block must be positive");
    pc_assert(cfg_.capacity % cfg_.pageSize == 0,
              "capacity must be page-aligned");
    const Bytes block_bytes = cfg_.pageSize * cfg_.pagesPerBlock;
    const u64 blocks = (cfg_.capacity + block_bytes - 1) / block_bytes;
    eraseCounts_.assign(blocks, 0);
}

void
FlashDevice::checkRange(Bytes addr, Bytes len) const
{
    pc_assert(addr + len <= cfg_.capacity,
              "flash access [", addr, ", ", addr + len,
              ") beyond capacity ", cfg_.capacity);
}

u64
FlashDevice::pagesSpanned(Bytes addr, Bytes len) const
{
    if (len == 0)
        return 0;
    const Bytes first = addr / cfg_.pageSize;
    const Bytes last = (addr + len - 1) / cfg_.pageSize;
    return last - first + 1;
}

SimTime
FlashDevice::read(Bytes addr, Bytes len)
{
    checkRange(addr, len);
    const u64 pages = pagesSpanned(addr, len);
    // Each touched page pays array access (tR); the bus transfers the
    // whole page, not just the requested bytes.
    const SimTime t = SimTime(pages) *
        (cfg_.readPageLatency + SimTime(cfg_.pageSize) * cfg_.busPerByte);
    pagesRead_ += pages;
    account(false, len, t);
    return t;
}

SimTime
FlashDevice::write(Bytes addr, Bytes len)
{
    checkRange(addr, len);
    const u64 pages = pagesSpanned(addr, len);
    const SimTime t = SimTime(pages) *
        (cfg_.programPageLatency + SimTime(cfg_.pageSize) * cfg_.busPerByte);
    pagesProgrammed_ += pages;
    account(true, len, t);
    return t;
}

SimTime
FlashDevice::eraseBlockAt(Bytes addr)
{
    checkRange(addr, 1);
    const Bytes block_bytes = cfg_.pageSize * cfg_.pagesPerBlock;
    const u64 block = addr / block_bytes;
    ++eraseCounts_.at(block);
    ++blocksErased_;
    account(true, 0, cfg_.eraseBlockLatency);
    return cfg_.eraseBlockLatency;
}

u64
FlashDevice::blockEraseCount(u64 block) const
{
    return eraseCounts_.at(block);
}

u64
FlashDevice::maxWear() const
{
    u64 m = 0;
    for (u64 c : eraseCounts_)
        m = c > m ? c : m;
    return m;
}

} // namespace pc::nvm
