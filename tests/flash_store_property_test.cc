/**
 * @file
 * Property tests: the flash store against an in-memory reference model
 * under randomized operation sequences, across allocation units.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "simfs/flash_store.h"
#include "util/rng.h"
#include "util/strings.h"

namespace pc::simfs {
namespace {

class StoreVsReference : public ::testing::TestWithParam<Bytes>
{
};

TEST_P(StoreVsReference, RandomOpsMatchReferenceModel)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    StoreConfig cfg;
    cfg.allocUnit = GetParam();
    FlashStore store(device, cfg);

    // Reference: name -> contents.
    std::map<std::string, std::string> ref;
    std::map<std::string, FileId> ids;

    Rng rng(u64(GetParam()) + 99);
    SimTime t = 0;

    for (int step = 0; step < 3000; ++step) {
        const u64 op = rng.below(100);
        const std::string name =
            strformat("f%llu", (unsigned long long)rng.below(20));

        if (op < 25) { // create (if absent)
            if (!ref.count(name)) {
                ids[name] = store.create(name);
                ref[name] = "";
            }
        } else if (op < 55) { // append
            if (ref.count(name)) {
                std::string data(rng.below(3000) + 1,
                                 char('a' + char(rng.below(26))));
                store.append(ids[name], data, t);
                ref[name] += data;
            }
        } else if (op < 80) { // read at random offset
            if (ref.count(name)) {
                const Bytes off = rng.below(ref[name].size() + 100);
                const Bytes len = rng.below(5000) + 1;
                std::string out;
                const Bytes got =
                    store.read(ids[name], off, len, out, t);
                std::string expect;
                if (off < ref[name].size()) {
                    expect = ref[name].substr(
                        off, std::min<std::size_t>(len,
                                                   ref[name].size() -
                                                       off));
                }
                ASSERT_EQ(got, expect.size());
                ASSERT_EQ(out, expect);
            }
        } else if (op < 90) { // truncate-and-write
            if (ref.count(name)) {
                std::string data(rng.below(2000),
                                 char('A' + char(rng.below(26))));
                store.truncateAndWrite(ids[name], data, t);
                ref[name] = data;
            }
        } else { // remove
            if (ref.count(name)) {
                store.remove(ids[name], t);
                ref.erase(name);
                ids.erase(name);
            }
        }

        // Invariants after every step.
        if (step % 100 == 0) {
            const auto stats = store.stats();
            Bytes logical = 0, physical = 0;
            for (const auto &[n, contents] : ref) {
                ASSERT_EQ(store.size(ids.at(n)), contents.size());
                logical += contents.size();
                const Bytes blocks =
                    (contents.size() + cfg.allocUnit - 1) /
                    cfg.allocUnit;
                ASSERT_EQ(store.physicalSize(ids.at(n)),
                          blocks * cfg.allocUnit);
                physical += blocks * cfg.allocUnit;
            }
            ASSERT_EQ(stats.files, ref.size());
            ASSERT_EQ(stats.logicalBytes, logical);
            ASSERT_EQ(stats.physicalBytes, physical);
            ASSERT_EQ(store.listFiles().size(), ref.size());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllocUnits, StoreVsReference,
                         ::testing::Values(4 * kKiB, 8 * kKiB,
                                           16 * kKiB));

TEST(StoreTiming, TimeNeverDecreasesUnderRandomOps)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    FlashStore store(device);
    Rng rng(7);
    const FileId id = store.create("t");
    SimTime t = 0;
    SimTime prev = 0;
    for (int i = 0; i < 500; ++i) {
        if (rng.chance(0.5)) {
            store.append(id, std::string(rng.below(2000) + 1, 'x'), t);
        } else {
            std::string out;
            store.read(id, rng.below(store.size(id) + 1),
                       rng.below(2000) + 1, out, t);
        }
        ASSERT_GE(t, prev);
        prev = t;
    }
}

} // namespace
} // namespace pc::simfs
