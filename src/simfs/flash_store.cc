#include "simfs/flash_store.h"

#include <algorithm>

#include "util/logging.h"

namespace pc::simfs {

double
StoreStats::wasteRatio() const
{
    if (physicalBytes == 0)
        return 0.0;
    return double(internalWaste()) / double(physicalBytes);
}

FlashStore::FlashStore(pc::nvm::FlashDevice &device, const StoreConfig &cfg)
    : device_(device), cfg_(cfg)
{
    pc_assert(cfg_.allocUnit > 0, "allocation unit must be positive");
    pc_assert(cfg_.allocUnit % device_.config().pageSize == 0 ||
              device_.config().pageSize % cfg_.allocUnit == 0,
              "allocation unit and flash page size must nest");
}

FlashStore::FlashStore(const FlashStore &image, pc::nvm::FlashDevice &device)
    : device_(device),
      cfg_(image.cfg_),
      files_(image.files_),
      byName_(image.byName_),
      freeBlocks_(image.freeBlocks_),
      nextBlock_(image.nextBlock_)
{
    pc_assert(image.faults_ == nullptr,
              "cannot clone a store with a fault plan attached");
    pc_assert(image.metrics_.creates == nullptr,
              "cannot clone a store with a metrics registry attached");
    pc_assert(&device != &image.device_,
              "a store clone needs its own flash device");
}

bool
FlashStore::sameState(const FlashStore &other) const
{
    return cfg_ == other.cfg_ && nextBlock_ == other.nextBlock_ &&
           freeBlocks_ == other.freeBlocks_ && files_ == other.files_ &&
           byName_ == other.byName_;
}

void
FlashStore::adoptState(const FlashStore &installed,
                       const obs::MetricRegistry &counts)
{
    files_ = installed.files_;
    byName_ = installed.byName_;
    freeBlocks_ = installed.freeBlocks_;
    nextBlock_ = installed.nextBlock_;
    for (obs::Counter *c :
         {metrics_.creates, metrics_.opens, metrics_.reads,
          metrics_.writes, metrics_.truncates, metrics_.removes,
          metrics_.bytesRead, metrics_.bytesWritten,
          metrics_.createConflicts, metrics_.readNs, metrics_.writeNs,
          metrics_.truncateNs, metrics_.removeNs}) {
        if (c == nullptr)
            continue;
        if (const obs::Counter *n = counts.findCounter(c->name()))
            c->bump(n->value());
    }
}

void
FlashStore::attachMetrics(obs::MetricRegistry *reg)
{
    if (!reg) {
        metrics_ = Metrics{};
        return;
    }
    metrics_.creates = &reg->counter("simfs.creates");
    metrics_.opens = &reg->counter("simfs.opens");
    metrics_.reads = &reg->counter("simfs.reads");
    metrics_.writes = &reg->counter("simfs.writes");
    metrics_.truncates = &reg->counter("simfs.truncates");
    metrics_.removes = &reg->counter("simfs.removes");
    metrics_.bytesRead = &reg->counter("simfs.bytes_read");
    metrics_.bytesWritten = &reg->counter("simfs.bytes_written");
    metrics_.createConflicts = &reg->counter("simfs.create_conflicts");
    metrics_.readNs = &reg->counter("simfs.read_ns");
    metrics_.writeNs = &reg->counter("simfs.write_ns");
    metrics_.truncateNs = &reg->counter("simfs.truncate_ns");
    metrics_.removeNs = &reg->counter("simfs.remove_ns");
}

FileId
FlashStore::create(const std::string &name)
{
    if (byName_.find(name) != byName_.end()) {
        if (metrics_.createConflicts)
            metrics_.createConflicts->bump();
        return kNoFile;
    }
    FileId id = FileId(files_.size());
    files_.push_back(File{name, {}, {}, true});
    byName_[name] = id;
    if (metrics_.creates)
        metrics_.creates->bump();
    return id;
}

FileId
FlashStore::open(const std::string &name, SimTime &time)
{
    time += cfg_.openOverhead;
    if (metrics_.opens)
        metrics_.opens->bump();
    auto it = byName_.find(name);
    return it == byName_.end() ? kNoFile : it->second;
}

bool
FlashStore::reopen(FileId id, SimTime &time)
{
    time += cfg_.openOverhead;
    if (metrics_.opens)
        metrics_.opens->bump();
    return valid(id);
}

FileId
FlashStore::lookup(const std::string &name) const
{
    auto it = byName_.find(name);
    return it == byName_.end() ? kNoFile : it->second;
}

bool
FlashStore::valid(FileId id) const
{
    return id < files_.size() && files_[id].live;
}

const FlashStore::File &
FlashStore::fileAt(FileId id) const
{
    pc_assert(valid(id), "invalid file id ", id);
    return files_[id];
}

FlashStore::File &
FlashStore::fileAt(FileId id)
{
    pc_assert(valid(id), "invalid file id ", id);
    return files_[id];
}

u64
FlashStore::allocBlock()
{
    if (!freeBlocks_.empty()) {
        std::size_t pick = freeBlocks_.size() - 1;
        if (cfg_.wearLeveling) {
            // Least-worn free block first; wear is tracked per *device*
            // block, so map allocation units onto device blocks.
            const Bytes dev_block =
                device_.config().pageSize * device_.config().pagesPerBlock;
            u64 best = ~u64(0);
            for (std::size_t i = 0; i < freeBlocks_.size(); ++i) {
                const u64 dev_idx =
                    freeBlocks_[i] * cfg_.allocUnit / dev_block;
                const u64 wear = device_.blockEraseCount(dev_idx);
                if (wear < best) {
                    best = wear;
                    pick = i;
                }
            }
        }
        const u64 b = freeBlocks_[pick];
        freeBlocks_.erase(freeBlocks_.begin() +
                          std::ptrdiff_t(pick));
        return b;
    }
    const u64 total_blocks = device_.capacity() / cfg_.allocUnit;
    pc_assert(nextBlock_ < total_blocks, "flash store out of space");
    return nextBlock_++;
}

void
FlashStore::reserve(File &f, Bytes size, SimTime &time, bool charge_program)
{
    const u64 needed = (size + cfg_.allocUnit - 1) / cfg_.allocUnit;
    while (f.blocks.size() < needed) {
        const u64 b = allocBlock();
        f.blocks.push_back(b);
        if (charge_program) {
            // New blocks must be in the erased state before programming;
            // model the (amortized) erase here.
            time += device_.eraseBlockAt(b * cfg_.allocUnit);
        }
    }
}

Bytes
FlashStore::flashAddr(const File &f, Bytes offset) const
{
    const u64 block_idx = offset / cfg_.allocUnit;
    pc_assert(block_idx < f.blocks.size(), "offset beyond allocation");
    return f.blocks[block_idx] * cfg_.allocUnit + offset % cfg_.allocUnit;
}

void
FlashStore::append(FileId id, std::string_view data, SimTime &time)
{
    File &f = fileAt(id);
    if (faults_ && faults_->powerLost())
        return; // the device is off; nothing reaches the flash
    // An armed crash may cut the program short, leaving a torn file —
    // exactly the state the snapshot commit protocol must survive.
    std::string_view payload = data;
    if (faults_)
        payload = data.substr(0, faults_->programBudget(data.size()));
    const SimTime t0 = time;
    const Bytes start = f.data.size();
    if (metrics_.writes) {
        metrics_.writes->bump();
        metrics_.bytesWritten->bump(payload.size());
    }
    reserve(f, start + payload.size(), time, true);
    // Charge programs block-run by block-run (appends can straddle).
    Bytes off = start;
    Bytes remaining = payload.size();
    while (remaining > 0) {
        const Bytes in_block = cfg_.allocUnit - off % cfg_.allocUnit;
        const Bytes chunk = std::min<Bytes>(remaining, in_block);
        time += device_.write(flashAddr(f, off), chunk);
        off += chunk;
        remaining -= chunk;
    }
    f.data.append(payload);
    if (metrics_.writeNs)
        metrics_.writeNs->bump(u64(time - t0));
}

void
FlashStore::writeAt(FileId id, Bytes offset, std::string_view data,
                    SimTime &time)
{
    File &f = fileAt(id);
    if (faults_ && faults_->powerLost())
        return;
    std::string_view payload = data;
    if (faults_)
        payload = data.substr(0, faults_->programBudget(data.size()));
    if (payload.empty())
        return;
    const SimTime t0 = time;
    if (metrics_.writes) {
        metrics_.writes->bump();
        metrics_.bytesWritten->bump(payload.size());
    }
    const Bytes end = offset + payload.size();
    reserve(f, end, time, true);
    if (f.data.size() < end)
        f.data.resize(end, '\0'); // sparse extension; never programmed
    // Charge programs block-run by block-run over the written range.
    Bytes off = offset;
    Bytes remaining = payload.size();
    while (remaining > 0) {
        const Bytes in_block = cfg_.allocUnit - off % cfg_.allocUnit;
        const Bytes chunk = std::min<Bytes>(remaining, in_block);
        time += device_.write(flashAddr(f, off), chunk);
        off += chunk;
        remaining -= chunk;
    }
    f.data.replace(offset, payload.size(), payload);
    if (metrics_.writeNs)
        metrics_.writeNs->bump(u64(time - t0));
}

Bytes
FlashStore::read(FileId id, Bytes offset, Bytes len, std::string &out,
                 SimTime &time) const
{
    return readSpan(id, offset, len, &out, time);
}

Bytes
FlashStore::chargeRead(FileId id, Bytes offset, Bytes len,
                       SimTime &time) const
{
    return readSpan(id, offset, len, nullptr, time);
}

Bytes
FlashStore::readSpan(FileId id, Bytes offset, Bytes len, std::string *out,
                     SimTime &time) const
{
    const File &f = fileAt(id);
    if (out)
        out->clear();
    const SimTime t0 = time;
    if (metrics_.reads)
        metrics_.reads->bump();
    if (offset >= f.data.size())
        return 0;
    const Bytes n = std::min<Bytes>(len, f.data.size() - offset);
    if (metrics_.bytesRead)
        metrics_.bytesRead->bump(n);
    if (out)
        out->assign(f.data, offset, n);
    // Charge reads block-run by block-run.
    const Bytes dev_block =
        device_.config().pageSize * device_.config().pagesPerBlock;
    Bytes off = offset;
    Bytes remaining = n;
    while (remaining > 0) {
        const Bytes in_block = cfg_.allocUnit - off % cfg_.allocUnit;
        const Bytes chunk = std::min<Bytes>(remaining, in_block);
        const Bytes addr = flashAddr(f, off);
        // const_cast: the device mutates only stats, which are mutable in
        // spirit; keep the read path usable from const contexts.
        time += const_cast<pc::nvm::FlashDevice &>(device_)
                    .read(addr, chunk);
        if (faults_) {
            // Wear-correlated retention loss: worn blocks may return a
            // flipped bit. The flip hits the returned buffer only — the
            // stored data stays intact, as with a real transient read
            // error. A charge-only read draws the same flip and drops
            // it.
            const u64 erases = device_.blockEraseCount(addr / dev_block);
            if (out)
                faults_->maybeFlipBit(*out, off - offset, chunk, erases);
            else
                faults_->drawBitFlip(chunk, erases);
        }
        off += chunk;
        remaining -= chunk;
    }
    if (metrics_.readNs)
        metrics_.readNs->bump(u64(time - t0));
    return n;
}

void
FlashStore::truncateAndWrite(FileId id, std::string_view data, SimTime &time)
{
    File &f = fileAt(id);
    if (faults_ && faults_->powerLost())
        return;
    const SimTime t0 = time;
    if (metrics_.truncates)
        metrics_.truncates->bump();
    // Old blocks must be erased before reuse; charge and free them.
    for (u64 b : f.blocks) {
        time += device_.eraseBlockAt(b * cfg_.allocUnit);
        freeBlocks_.push_back(b);
    }
    f.blocks.clear();
    f.data.clear();
    append(id, data, time);
    if (metrics_.truncateNs)
        metrics_.truncateNs->bump(u64(time - t0));
}

void
FlashStore::remove(FileId id, SimTime &time)
{
    File &f = fileAt(id);
    const SimTime t0 = time;
    if (metrics_.removes)
        metrics_.removes->bump();
    // Freed blocks must be erased before reuse; charge the erases here,
    // as truncateAndWrite does.
    for (u64 b : f.blocks) {
        time += device_.eraseBlockAt(b * cfg_.allocUnit);
        freeBlocks_.push_back(b);
    }
    byName_.erase(f.name);
    f.blocks.clear();
    f.data.clear();
    f.live = false;
    if (metrics_.removeNs)
        metrics_.removeNs->bump(u64(time - t0));
}

double
FlashStore::avgWear(FileId id) const
{
    const File &f = fileAt(id);
    if (f.blocks.empty())
        return 0.0;
    const Bytes dev_block =
        device_.config().pageSize * device_.config().pagesPerBlock;
    double total = 0.0;
    for (u64 b : f.blocks)
        total += double(
            device_.blockEraseCount(b * cfg_.allocUnit / dev_block));
    return total / double(f.blocks.size());
}

Bytes
FlashStore::size(FileId id) const
{
    return fileAt(id).data.size();
}

Bytes
FlashStore::physicalSize(FileId id) const
{
    return Bytes(fileAt(id).blocks.size()) * cfg_.allocUnit;
}

StoreStats
FlashStore::stats() const
{
    StoreStats s;
    for (const auto &f : files_) {
        if (!f.live)
            continue;
        ++s.files;
        s.logicalBytes += f.data.size();
        s.physicalBytes += Bytes(f.blocks.size()) * cfg_.allocUnit;
    }
    return s;
}

std::vector<std::string>
FlashStore::listFiles() const
{
    std::vector<std::string> names;
    names.reserve(byName_.size());
    for (const auto &[name, id] : byName_) {
        (void)id;
        names.push_back(name);
    }
    return names;
}

} // namespace pc::simfs
