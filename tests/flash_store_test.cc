/**
 * @file
 * Unit and property tests for the flash file store.
 */

#include <gtest/gtest.h>

#include <string>

#include "fault/fault_plan.h"
#include "simfs/flash_store.h"
#include "util/strings.h"

namespace pc::simfs {
namespace {

pc::nvm::FlashConfig
deviceConfig()
{
    pc::nvm::FlashConfig cfg;
    cfg.pageSize = 4 * kKiB;
    cfg.pagesPerBlock = 4;
    cfg.capacity = 4 * kMiB;
    return cfg;
}

class FlashStoreTest : public ::testing::Test
{
  protected:
    FlashStoreTest() : device_(deviceConfig()), store_(device_) {}

    pc::nvm::FlashDevice device_;
    FlashStore store_;
};

TEST_F(FlashStoreTest, CreateOpenRoundTrip)
{
    const FileId id = store_.create("a.dat");
    SimTime t = 0;
    EXPECT_EQ(store_.open("a.dat", t), id);
    EXPECT_GT(t, 0) << "open must cost metadata time";
    EXPECT_EQ(store_.open("missing", t), kNoFile);
    EXPECT_EQ(store_.lookup("a.dat"), id);
    EXPECT_TRUE(store_.valid(id));
}

TEST_F(FlashStoreTest, AppendReadRoundTrip)
{
    const FileId id = store_.create("f");
    SimTime t = 0;
    store_.append(id, "hello ", t);
    store_.append(id, "world", t);
    std::string out;
    const Bytes n = store_.read(id, 0, 100, out, t);
    EXPECT_EQ(n, 11u);
    EXPECT_EQ(out, "hello world");
    EXPECT_EQ(store_.size(id), 11u);
}

TEST_F(FlashStoreTest, ReadAtOffsetAndClamp)
{
    const FileId id = store_.create("f");
    SimTime t = 0;
    store_.append(id, "0123456789", t);
    std::string out;
    EXPECT_EQ(store_.read(id, 4, 3, out, t), 3u);
    EXPECT_EQ(out, "456");
    EXPECT_EQ(store_.read(id, 8, 100, out, t), 2u);
    EXPECT_EQ(out, "89");
    EXPECT_EQ(store_.read(id, 20, 5, out, t), 0u);
    EXPECT_EQ(out, "");
}

TEST_F(FlashStoreTest, PhysicalSizeIsBlockRounded)
{
    const FileId id = store_.create("tiny");
    SimTime t = 0;
    store_.append(id, std::string(500, 'x'), t);
    // The paper's Section 5.2.2 point: a 500-byte file occupies a whole
    // allocation block.
    EXPECT_EQ(store_.size(id), 500u);
    EXPECT_EQ(store_.physicalSize(id), store_.config().allocUnit);
    const auto stats = store_.stats();
    EXPECT_EQ(stats.logicalBytes, 500u);
    EXPECT_EQ(stats.physicalBytes, store_.config().allocUnit);
    EXPECT_EQ(stats.internalWaste(), store_.config().allocUnit - 500);
    EXPECT_GT(stats.wasteRatio(), 0.85);
}

TEST_F(FlashStoreTest, AppendAcrossBlockBoundary)
{
    const FileId id = store_.create("big");
    SimTime t = 0;
    const std::string chunk(store_.config().allocUnit - 10, 'a');
    store_.append(id, chunk, t);
    store_.append(id, std::string(100, 'b'), t);
    EXPECT_EQ(store_.physicalSize(id), 2 * store_.config().allocUnit);
    std::string out;
    store_.read(id, chunk.size(), 100, out, t);
    EXPECT_EQ(out, std::string(100, 'b'));
}

TEST_F(FlashStoreTest, TruncateAndWriteReplacesContents)
{
    const FileId id = store_.create("f");
    SimTime t = 0;
    store_.append(id, "old contents", t);
    store_.truncateAndWrite(id, "new", t);
    std::string out;
    store_.read(id, 0, 100, out, t);
    EXPECT_EQ(out, "new");
    EXPECT_EQ(store_.size(id), 3u);
    EXPECT_GT(device_.blocksErased(), 0u)
        << "rewrite must charge block erases";
}

TEST_F(FlashStoreTest, RemoveFreesBlocksForReuse)
{
    const FileId id = store_.create("f");
    SimTime t = 0;
    store_.append(id, std::string(10000, 'x'), t);
    const Bytes before = store_.stats().physicalBytes;
    EXPECT_GT(before, 0u);
    store_.remove(id, t);
    EXPECT_FALSE(store_.valid(id));
    EXPECT_EQ(store_.stats().physicalBytes, 0u);
    EXPECT_EQ(store_.lookup("f"), kNoFile);
    // The name can be recreated and blocks get reused.
    const FileId id2 = store_.create("f");
    store_.append(id2, "y", t);
    EXPECT_TRUE(store_.valid(id2));
}

TEST_F(FlashStoreTest, ListFilesSorted)
{
    store_.create("b");
    store_.create("a");
    store_.create("c");
    const auto names = store_.listFiles();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
    EXPECT_EQ(names[2], "c");
}

TEST_F(FlashStoreTest, TimingAccumulatesMonotonically)
{
    const FileId id = store_.create("f");
    SimTime t = 0;
    store_.append(id, "data", t);
    const SimTime after_append = t;
    EXPECT_GT(after_append, 0);
    std::string out;
    store_.read(id, 0, 4, out, t);
    EXPECT_GT(t, after_append);
}

TEST_F(FlashStoreTest, DuplicateCreateReturnsError)
{
    // Regression: creating an existing name used to be an undocumented
    // precondition (assert). It now reports a defined error and leaves
    // the existing file untouched.
    const FileId id = store_.create("dup");
    SimTime t = 0;
    store_.append(id, "payload", t);
    EXPECT_EQ(store_.create("dup"), kNoFile);
    EXPECT_EQ(store_.lookup("dup"), id);
    EXPECT_EQ(store_.size(id), 7u);
    // A removed name can be created again.
    store_.remove(id, t);
    const FileId id2 = store_.create("dup");
    EXPECT_NE(id2, kNoFile);
    EXPECT_NE(id2, id);
}

TEST_F(FlashStoreTest, OutOfSpaceDies)
{
    const FileId id = store_.create("huge");
    SimTime t = 0;
    const std::string chunk(256 * kKiB, 'x');
    EXPECT_DEATH(
        {
            for (int i = 0; i < 64; ++i)
                store_.append(id, chunk, t);
        },
        "out of space");
}

/** Property sweep over the paper's allocation-unit sizes. */
class AllocUnitSweep : public ::testing::TestWithParam<Bytes>
{
};

TEST_P(AllocUnitSweep, WasteMatchesBlockArithmetic)
{
    pc::nvm::FlashDevice device(deviceConfig());
    StoreConfig cfg;
    cfg.allocUnit = GetParam();
    FlashStore store(device, cfg);
    SimTime t = 0;
    // 33 files of 500 B each: classic small-record fragmentation.
    for (int i = 0; i < 33; ++i) {
        const FileId id = store.create(strformat("r%d", i));
        store.append(id, std::string(500, 'x'), t);
    }
    const auto stats = store.stats();
    EXPECT_EQ(stats.logicalBytes, 33u * 500u);
    EXPECT_EQ(stats.physicalBytes, 33u * cfg.allocUnit);
}

INSTANTIATE_TEST_SUITE_P(PaperBlockSizes, AllocUnitSweep,
                         ::testing::Values(4 * kKiB, 8 * kKiB, 16 * kKiB));

/**
 * A store whose blocks carry about a thousand erases each, with a
 * seeded bit-flip plan attached: reads of it flip a bit in some chunks
 * and not in others, so a chunk consumes one or two fault-plan draws.
 */
struct WornStore
{
    explicit WornStore(u64 seed)
        : device(deviceConfig()), store(device), plan(faultConfig(seed))
    {
        SimTime t = 0;
        file = store.create("worn");
        // Rewrites free and reallocate the same blocks (LIFO reuse),
        // erasing them twice per pass.
        for (int pass = 0; pass < 150; ++pass) {
            store.truncateAndWrite(
                file, std::string(3 * store.config().allocUnit + 123,
                                  char('a' + pass % 26)),
                t);
        }
        store.attachMetrics(&reg);
        store.attachFaults(&plan);
    }

    static pc::fault::FaultConfig
    faultConfig(u64 seed)
    {
        pc::fault::FaultConfig cfg;
        cfg.seed = seed;
        cfg.storage.bitFlipPerReadPerKiloErase = 0.5;
        return cfg;
    }

    pc::nvm::FlashDevice device;
    FlashStore store;
    pc::fault::FaultPlan plan;
    obs::MetricRegistry reg;
    FileId file = kNoFile;
};

// The charge-only read stands in for read() where the bytes are not
// needed (the result database's header). It must charge exactly what
// read() charges — time, counters and wear-correlated flip draws —
// or a worn fleet's fault stream would shift after the first fetch.
TEST(FlashStoreChargeRead, MatchesReadTimeCountersAndFaultDraws)
{
    WornStore copied(31);
    WornStore charged(31);
    const Bytes size = copied.store.size(copied.file);
    ASSERT_EQ(size, charged.store.size(charged.file));

    SimTime t_copied = 0;
    SimTime t_charged = 0;
    u64 flips_seen = 0;
    for (int round = 0; round < 40; ++round) {
        // Spans that start mid-block, straddle blocks, clamp at the end
        // and start past it.
        const Bytes offset = Bytes(round) * 997 % (size + 200);
        const Bytes len = 1 + Bytes(round) * 1571 % (2 * size);
        std::string out;
        const Bytes got =
            copied.store.read(copied.file, offset, len, out, t_copied);
        const Bytes charged_got = charged.store.chargeRead(
            charged.file, offset, len, t_charged);
        ASSERT_EQ(got, charged_got) << "round " << round;
        ASSERT_EQ(out.size(), got);
        ASSERT_EQ(t_copied, t_charged) << "round " << round;
        ASSERT_EQ(copied.plan.rngDraws(), charged.plan.rngDraws())
            << "round " << round;
        ASSERT_EQ(copied.plan.stats(), charged.plan.stats())
            << "round " << round;
        flips_seen = copied.plan.stats().bitFlips;
    }
    for (const char *name :
         {"simfs.reads", "simfs.bytes_read", "simfs.read_ns"}) {
        EXPECT_EQ(copied.reg.counter(name).value(),
                  charged.reg.counter(name).value())
            << name;
    }
    EXPECT_EQ(copied.device.pagesRead(), charged.device.pagesRead());
    // The draws only matter if flips both happen and fail to happen:
    // each chunk draws a chance, each flip one more for its bit.
    const u64 chunks = copied.plan.rngDraws() - flips_seen;
    EXPECT_GT(flips_seen, 0u);
    EXPECT_LT(flips_seen, chunks);
}

// reopen charges what open-by-name charges, and tells live ids from
// removed ones.
TEST(FlashStoreReopen, ChargesLikeOpenByName)
{
    pc::nvm::FlashDevice device(deviceConfig());
    FlashStore store(device);
    obs::MetricRegistry reg;
    store.attachMetrics(&reg);
    const FileId id = store.create("a.dat");
    SimTime by_name = 0;
    SimTime by_id = 0;
    ASSERT_EQ(store.open("a.dat", by_name), id);
    ASSERT_TRUE(store.reopen(id, by_id));
    EXPECT_EQ(by_name, by_id);
    EXPECT_EQ(reg.counter("simfs.opens").value(), 2u);
    store.remove(id, by_id);
    EXPECT_FALSE(store.reopen(id, by_id));
    EXPECT_FALSE(store.reopen(kNoFile, by_id));
}

} // namespace
} // namespace pc::simfs

namespace pc::simfs {
namespace {

TEST(WearLeveling, FlattensEraseDistribution)
{
    // Hammer one file with rewrites while other files pin most blocks;
    // the levelled allocator must spread erases over the free pool it
    // is given, the naive LIFO allocator reuses the same blocks.
    auto max_wear = [](bool leveling) {
        pc::nvm::FlashConfig fc;
        fc.pageSize = 4 * kKiB;
        fc.pagesPerBlock = 1; // device block == allocation unit
        fc.capacity = 4 * kMiB;
        pc::nvm::FlashDevice device(fc);
        StoreConfig cfg;
        cfg.wearLeveling = leveling;
        FlashStore store(device, cfg);
        SimTime t = 0;
        // Create a pool of blocks by allocating then freeing 32 files.
        std::vector<FileId> pool;
        for (int i = 0; i < 32; ++i) {
            const FileId id = store.create("pool" + std::to_string(i));
            store.append(id, std::string(4096, 'x'), t);
            pool.push_back(id);
        }
        for (const FileId id : pool)
            store.remove(id, t);
        // Now rewrite one small file many times.
        const FileId hot = store.create("hot");
        store.append(hot, "seed", t);
        for (int i = 0; i < 320; ++i)
            store.truncateAndWrite(hot, std::string(100, 'y'), t);
        return device.maxWear();
    };
    const u64 naive = max_wear(false);
    const u64 levelled = max_wear(true);
    EXPECT_LT(levelled, naive)
        << "levelling must flatten the erase distribution";
    EXPECT_LE(levelled, naive / 4) << "and by a wide margin";
}

} // namespace
} // namespace pc::simfs

namespace pc::simfs {
namespace {

TEST(FlashStoreTimedRemove, ChargesEraseLatencyAndWearForFreedBlocks)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    FlashStore store(device);
    SimTime t = 0;
    const FileId id = store.create("victim");
    store.append(id, std::string(3 * store.config().allocUnit, 'x'), t);
    const u64 wearBefore = device.blocksErased();

    SimTime removeTime = 0;
    store.remove(id, removeTime);
    ASSERT_GT(removeTime, 0) << "freed blocks must pay their erases";
    ASSERT_EQ(device.blocksErased(), wearBefore + 3);
    ASSERT_FALSE(store.valid(id));
}

TEST(FlashStoreMetrics, CreateConflictsAndLatencyAccumulatorsCount)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    FlashStore store(device);
    obs::MetricRegistry reg;
    store.attachMetrics(&reg);

    ASSERT_NE(store.create("dup"), kNoFile);
    ASSERT_EQ(store.create("dup"), kNoFile); // duplicate name
    ASSERT_EQ(reg.counter("simfs.create_conflicts").value(), 1u);

    SimTime t = 0;
    const FileId id = store.lookup("dup");
    store.append(id, std::string(2000, 'x'), t);
    std::string out;
    store.read(id, 0, 2000, out, t);
    SimTime rt = 0;
    store.remove(id, rt);
    ASSERT_GT(reg.counter("simfs.write_ns").value(), 0u);
    ASSERT_GT(reg.counter("simfs.read_ns").value(), 0u);
    ASSERT_EQ(reg.counter("simfs.remove_ns").value(), u64(rt));
}

TEST(FlashStoreWriteAt, InPlaceRewriteAndSparseExtension)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 16 * kMiB;
    pc::nvm::FlashDevice device(fc);
    FlashStore store(device);
    SimTime t = 0;
    const FileId id = store.create("slab");

    store.writeAt(id, 0, "AAAA", t);
    ASSERT_EQ(store.size(id), 4u);
    // Sparse extension: the gap reads back as zeros.
    store.writeAt(id, 100, "BBBB", t);
    ASSERT_EQ(store.size(id), 104u);
    std::string out;
    store.read(id, 0, 104, out, t);
    ASSERT_EQ(out.substr(0, 4), "AAAA");
    ASSERT_EQ(out[50], '\0');
    ASSERT_EQ(out.substr(100, 4), "BBBB");
    // In-place rewrite does not grow the file.
    store.writeAt(id, 0, "CCCC", t);
    ASSERT_EQ(store.size(id), 104u);
    store.read(id, 0, 4, out, t);
    ASSERT_EQ(out, "CCCC");
}

} // namespace
} // namespace pc::simfs
