#include "core/result_db.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "util/hash.h"
#include "util/logging.h"
#include "util/strings.h"

namespace pc::core {

ResultDatabase::ResultDatabase(pc::simfs::FlashStore &store,
                               const DbConfig &cfg, std::string prefix)
    : store_(store), cfg_(cfg), prefix_(std::move(prefix))
{
    pc_assert(cfg_.numFiles >= 1, "database needs at least one file");
    if (cfg_.useStoreEngine) {
        // Slab-engine mode: the engine owns its own file family under
        // the prefix and recovers (or starts fresh) by itself.
        engine_ = std::make_unique<pc::store::StoreEngine>(
            store_, cfg_.engine, prefix_);
        return;
    }
    dataFiles_.reserve(cfg_.numFiles);
    indexFiles_.reserve(cfg_.numFiles);
    const bool attaching = store_.lookup(dataFileName(0)) !=
                           pc::simfs::kNoFile;
    for (u32 f = 0; f < cfg_.numFiles; ++f) {
        if (attaching) {
            // Flash survives power cycles: re-attach to the files and
            // rebuild the in-memory location map from the headers.
            const auto data = store_.lookup(dataFileName(f));
            const auto idx = store_.lookup(indexFileName(f));
            pc_assert(data != pc::simfs::kNoFile &&
                          idx != pc::simfs::kNoFile,
                      "database files missing on attach");
            dataFiles_.push_back(data);
            indexFiles_.push_back(idx);
        } else {
            dataFiles_.push_back(store_.create(dataFileName(f)));
            indexFiles_.push_back(store_.create(indexFileName(f)));
        }
    }
    if (attaching)
        recoverLocations();
}

ResultDatabase::ResultDatabase(const ResultDatabase &image,
                               pc::simfs::FlashStore &store)
    : store_(store),
      cfg_(image.cfg_),
      prefix_(image.prefix_),
      dataFiles_(image.dataFiles_),
      indexFiles_(image.indexFiles_),
      locations_(image.locations_)
{
    pc_assert(!cfg_.useStoreEngine,
              "cannot clone a database backed by the slab engine");
}

bool
ResultDatabase::operator==(const ResultDatabase &other) const
{
    const DbConfig &a = cfg_;
    const DbConfig &b = other.cfg_;
    return !engine_ && !other.engine_ && a.numFiles == b.numFiles &&
           a.perReadOverhead == b.perReadOverhead &&
           a.parsePerByte == b.parsePerByte &&
           a.recordParse == b.recordParse && prefix_ == other.prefix_ &&
           dataFiles_ == other.dataFiles_ &&
           indexFiles_ == other.indexFiles_ &&
           locations_ == other.locations_;
}

void
ResultDatabase::adoptState(const ResultDatabase &installed)
{
    pc_assert(!engine_ && !installed.engine_,
              "cannot adopt a database backed by the slab engine");
    locations_ = installed.locations_;
}

std::size_t
ResultDatabase::LocationMap::probe(u64 key) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = mix64(key) & mask;
    while (slots_[i].key != 0 && slots_[i].key != key)
        i = (i + 1) & mask;
    return i;
}

const ResultDatabase::Location *
ResultDatabase::LocationMap::find(u64 key) const
{
    if (key == 0 || slots_.empty())
        return nullptr;
    const Slot &s = slots_[probe(key)];
    return s.key == key ? &s.loc : nullptr;
}

void
ResultDatabase::LocationMap::grow()
{
    std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
    old.swap(slots_);
    for (const Slot &s : old)
        if (s.key != 0)
            slots_[probe(s.key)] = s;
}

void
ResultDatabase::LocationMap::assign(u64 key, const Location &loc)
{
    pc_assert(key != 0, "url hash 0 is the empty-slot sentinel");
    if (4 * (size_ + 1) > 3 * slots_.size())
        grow();
    Slot &s = slots_[probe(key)];
    if (s.key == 0) {
        s.key = key;
        ++size_;
    }
    s.loc = loc;
}

void
ResultDatabase::recoverLocations()
{
    SimTime sink = 0;
    for (u32 f = 0; f < cfg_.numFiles; ++f) {
        std::string header;
        store_.read(indexFiles_[f], 0, store_.size(indexFiles_[f]),
                    header, sink);
        for (const auto &line : split(header, '\n')) {
            if (line.empty())
                continue;
            const auto parts = split(line, ':');
            pc_assert(parts.size() == 3, "corrupt database header");
            Location loc;
            loc.file = f;
            loc.offset = std::strtoull(parts[1].c_str(), nullptr, 10);
            loc.length = std::strtoull(parts[2].c_str(), nullptr, 10);
            const u64 key = std::strtoull(parts[0].c_str(), nullptr, 16);
            // Later header lines supersede earlier ones: updateRecord
            // appends a fresh line for the key, so last wins.
            locations_.assign(key, loc);
        }
    }
}

std::string
ResultDatabase::dataFileName(u32 file) const
{
    return strformat("%s_%02u.dat", prefix_.c_str(), file);
}

std::string
ResultDatabase::indexFileName(u32 file) const
{
    return strformat("%s_%02u.idx", prefix_.c_str(), file);
}

std::string_view
ResultDatabase::encode(const ResultInfo &r)
{
    // Plain-text record, '|'-separated like the paper's portable plain
    // files (Figure 13); padded to the modelled ~500-byte record size so
    // flash accounting matches QueryUniverse::recordSize().
    std::string &rec = encodeBuf_;
    rec.clear();
    rec.append(r.title).append(1, '|').append(r.description);
    rec.append(1, '|').append(r.url).append(1, '\n');
    const Bytes target = workload::QueryUniverse::recordSize(r);
    if (rec.size() < target)
        rec.append(target - rec.size(), ' ');
    return rec;
}

bool
ResultDatabase::decode(std::string_view text, RecordView &out)
{
    // Strip padding and the trailing newline.
    const auto nl = text.find('\n');
    if (nl == std::string_view::npos)
        return false;
    const std::string_view body = text.substr(0, nl);
    const auto p1 = body.find('|');
    if (p1 == std::string_view::npos)
        return false;
    const auto p2 = body.find('|', p1 + 1);
    if (p2 == std::string_view::npos)
        return false;
    out.title = body.substr(0, p1);
    out.description = body.substr(p1 + 1, p2 - p1 - 1);
    out.url = body.substr(p2 + 1);
    return true;
}

ResultDatabase::Location
ResultDatabase::appendRecord(u64 key, std::string_view rec, SimTime &time)
{
    Location loc;
    loc.file = fileOf(key);
    loc.offset = store_.size(dataFiles_[loc.file]);
    loc.length = rec.size();

    store_.append(dataFiles_[loc.file], rec, time);
    // Augment the header with this record's (hash, offset, length).
    char line[64];
    const int n = std::snprintf(
        line, sizeof(line), "%016llx:%llu:%llu\n", (unsigned long long)key,
        (unsigned long long)loc.offset, (unsigned long long)loc.length);
    store_.append(indexFiles_[loc.file],
                  std::string_view(line, std::size_t(n)), time);
    return loc;
}

bool
ResultDatabase::addRecord(const ResultInfo &r, SimTime &time)
{
    return addRecord(r, urlHash(r.url), time);
}

bool
ResultDatabase::addRecord(const ResultInfo &r, u64 key, SimTime &time)
{
    if (engine_) {
        if (engine_->contains(key))
            return false;
        return engine_->put(key, encode(r), time);
    }
    if (locations_.find(key))
        return false;
    locations_.assign(key, appendRecord(key, encode(r), time));
    return true;
}

bool
ResultDatabase::updateRecord(const ResultInfo &r, SimTime &time)
{
    const u64 key = urlHash(r.url);
    if (engine_) {
        const bool had = engine_->contains(key);
        engine_->put(key, encode(r), time);
        return had;
    }
    if (locations_.find(key) == nullptr) {
        addRecord(r, key, time);
        return false;
    }
    // Append-supersede: the old copy stays as dead weight in the data
    // file (flat files cannot reclaim it — exactly the fragmentation
    // the slab engine's GC addresses) and a fresh header line redirects
    // the key.
    locations_.assign(key, appendRecord(key, encode(r), time));
    return true;
}

bool
ResultDatabase::contains(u64 url_hash) const
{
    if (engine_)
        return engine_->contains(url_hash);
    return locations_.find(url_hash) != nullptr;
}

bool
ResultDatabase::fetch(u64 url_hash, RecordView &out, SimTime &time)
{
    if (engine_) {
        // Index probe + (cached) slot read replaces the whole
        // open + parse-the-header sequence of flat mode.
        if (!engine_->get(url_hash, readBuf_, time))
            return false;
        time += cfg_.recordParse;
        const bool ok = decode(readBuf_, out);
        pc_assert(ok, "corrupt database record");
        return true;
    }
    const Location *loc = locations_.find(url_hash);
    if (loc == nullptr)
        return false;
    readFlat(*loc, &readBuf_, time);
    // Flat records carry no checksum, so a storage bit flip on a `|` or
    // `\n` separator surfaces here as an unparsable record: report it
    // missing (its read time is already charged) rather than abort.
    return decode(readBuf_, out);
}

void
ResultDatabase::chargeFetch(u64 url_hash, SimTime &time)
{
    if (engine_) {
        RecordView unused;
        fetch(url_hash, unused, time);
        return;
    }
    if (const Location *loc = locations_.find(url_hash))
        readFlat(*loc, nullptr, time);
}

void
ResultDatabase::readFlat(const Location &loc, std::string *out,
                         SimTime &time)
{
    // 1. Open the data file (directory/metadata overhead). Its id is
    //    cached; the open is charged as if by name.
    const pc::simfs::FileId data = dataFiles_[loc.file];
    const bool live = store_.reopen(data, time);
    pc_assert(live, "database file vanished");

    // 2. Read and parse the header: every (hash, offset) line of this
    //    file. This is the term that penalizes small file counts — one
    //    big file means one big header per lookup (Figure 12). The
    //    location map already holds what the parse yields, so the read
    //    is charged, not copied.
    const pc::simfs::FileId idx = indexFiles_[loc.file];
    time += cfg_.perReadOverhead;
    const Bytes header = store_.chargeRead(idx, 0, store_.size(idx), time);
    time += SimTime(header) * cfg_.parsePerByte;

    // 3. Read the record at its offset (charged alone when `out` is
    //    null: same time, counts and bit-flip draws).
    time += cfg_.perReadOverhead;
    const Bytes got =
        out ? store_.read(data, loc.offset, loc.length, *out, time)
            : store_.chargeRead(data, loc.offset, loc.length, time);
    pc_assert(got == loc.length, "truncated database record");
    time += cfg_.recordParse;
}

Bytes
ResultDatabase::logicalBytes() const
{
    if (engine_)
        return engine_->logicalBytes();
    Bytes total = 0;
    for (u32 f = 0; f < cfg_.numFiles; ++f)
        total += store_.size(dataFiles_[f]);
    return total;
}

Bytes
ResultDatabase::physicalBytes() const
{
    if (engine_)
        return engine_->physicalBytes();
    Bytes total = 0;
    for (u32 f = 0; f < cfg_.numFiles; ++f) {
        total += store_.physicalSize(dataFiles_[f]);
        total += store_.physicalSize(indexFiles_[f]);
    }
    return total;
}

std::vector<std::string>
ResultDatabase::fileNames() const
{
    if (engine_)
        return engine_->fileNames();
    std::vector<std::string> names;
    for (u32 f = 0; f < cfg_.numFiles; ++f) {
        names.push_back(dataFileName(f));
        names.push_back(indexFileName(f));
    }
    return names;
}

} // namespace pc::core
