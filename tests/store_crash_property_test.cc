/**
 * @file
 * Crash properties of the pc::store engine under FaultPlan torn-write
 * and bit-flip injection.
 *
 * The engine's acknowledgement contract: a write is durable once
 * flush() returns with the plan not reporting power loss. These
 * properties pin exactly that, across seeds:
 *
 *  - an acknowledged key is never lost by a crash, and its recovered
 *    value is either the acknowledged one or a later (unacknowledged
 *    but fully programmed) one — never a torn hybrid;
 *  - a superseded, acknowledged version never comes back, wherever
 *    the crash lands in the update that superseded it;
 *  - GC never loses acknowledged writes, even when the crash lands
 *    mid-relocation;
 *  - wear-correlated bit flips are absorbed by checksum-verified
 *    retries on both the lookup and the recovery path.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "fault/fault_plan.h"
#include "nvm/flash_device.h"
#include "store/engine.h"
#include "util/rng.h"

namespace pc::store {
namespace {

std::string
valueFor(u64 key, u64 version, Bytes size)
{
    std::string v = std::to_string(key) + "#" + std::to_string(version) + "#";
    while (v.size() < size)
        v.push_back(char('a' + (key * 7 + version + v.size()) % 26));
    return v.substr(0, size);
}

/**
 * Runs a randomized update workload against an engine with a crash
 * armed, tracking the acknowledged state (at the last successful
 * flush) and everything written since. After the crash fires, reboots,
 * re-attaches and checks the recovered state against the contract.
 * Adds the pre-crash engine's GC collections to `gcCollections`.
 */
void
runCrashRound(u64 seed, const StoreEngineConfig &cfg, Bytes crashAfter,
              u64 &gcCollections)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    pc::fault::FaultConfig fcfg;
    fcfg.seed = seed;
    pc::fault::FaultPlan plan(fcfg);
    store.attachFaults(&plan);

    constexpr u64 kKeys = 40;
    Rng rng(seed * 31 + 7);
    SimTime t = 0;

    // Acknowledged state and the not-yet-acknowledged values on top.
    std::map<u64, std::string> acked;
    std::map<u64, std::set<std::string>> pendingValues;
    u64 version = 0;

    {
        StoreEngine eng(store, cfg);

        // Warm-up phase before the crash is armed, fully acknowledged.
        for (int i = 0; i < 60; ++i) {
            const u64 k = rng.below(kKeys);
            const std::string v = valueFor(k, ++version, 30 + rng.below(180));
            ASSERT_TRUE(eng.put(k, v, t));
            acked[k] = v;
        }
        eng.flush(t);
        ASSERT_FALSE(plan.powerLost());

        plan.armCrashAfterBytes(crashAfter);
        for (int i = 0; i < 4000 && !plan.powerLost(); ++i) {
            const u64 k = rng.below(kKeys);
            if (rng.below(100) < 75) {
                const std::string v =
                    valueFor(k, ++version, 30 + rng.below(180));
                if (eng.put(k, v, t))
                    pendingValues[k].insert(v);
            } else {
                eng.flush(t);
                if (!plan.powerLost()) {
                    // Everything queued so far is now acknowledged:
                    // refresh the acked view of every touched key from
                    // the engine's own (now durable) state.
                    for (const auto &[key, vals] : pendingValues) {
                        std::string out;
                        SimTime rt = 0;
                        ASSERT_TRUE(eng.get(key, out, rt));
                        acked[key] = out;
                    }
                    pendingValues.clear();
                }
            }
        }
        ASSERT_TRUE(plan.powerLost()) << "crash never fired; seed " << seed;
        gcCollections += eng.gcStats().collections;
    }

    // Power back on; attach a fresh engine to the surviving flash.
    plan.reboot();
    StoreEngine eng2(store, cfg);

    SimTime rt = 0;
    for (const auto &[key, val] : acked) {
        std::string out;
        ASSERT_TRUE(eng2.get(key, out, rt))
            << "acknowledged key " << key << " lost; seed " << seed;
        ASSERT_TRUE(out == val || pendingValues[key].count(out) > 0)
            << "key " << key << " recovered a torn or superseded value; "
            << "seed " << seed;
    }
    // No inventions: every recovered key was written, and the index
    // holds nothing outside the workload's key range.
    u64 present = 0;
    for (u64 key = 0; key < kKeys; ++key) {
        if (!eng2.contains(key))
            continue;
        ++present;
        ASSERT_TRUE(acked.count(key) || pendingValues.count(key))
            << "key " << key << " invented; seed " << seed;
    }
    ASSERT_EQ(eng2.items(), present) << "seed " << seed;
}

TEST(StoreCrashProperty, AcknowledgedWritesSurviveTornCrashes)
{
    StoreEngineConfig cfg;
    cfg.slotsPerSlab = 16;
    u64 collections = 0;
    for (u64 seed = 1; seed <= 8; ++seed)
        runCrashRound(seed, cfg, 2000 + seed * 1777, collections);
}

TEST(StoreCrashProperty, UnbatchedEngineSurvivesTornCrashes)
{
    StoreEngineConfig cfg;
    cfg.slotsPerSlab = 16;
    cfg.batchWindow = 0; // every write issues immediately
    u64 collections = 0;
    for (u64 seed = 20; seed <= 24; ++seed)
        runCrashRound(seed, cfg, 1000 + seed * 997, collections);
}

TEST(StoreCrashProperty, GcNeverLosesAcknowledgedWrites)
{
    // Tiny slabs: every fourth kill in a non-fill slab crosses the
    // half-dead trigger, so the workload GCs constantly and crashes
    // regularly land around relocations.
    StoreEngineConfig cfg;
    cfg.sizeClasses = {256};
    cfg.slotsPerSlab = 8;
    u64 collections = 0;
    for (u64 seed = 40; seed <= 47; ++seed)
        runCrashRound(seed, cfg, 3000 + seed * 1511, collections);
    ASSERT_GT(collections, 0u);
}

/**
 * Two acknowledged versions of every key, then a third round of
 * updates with the crash armed at every byte offset of it, GC
 * relocations included. Recovery must return the second or the third
 * version of each key, never the superseded first.
 * @return Crashes that landed inside a GC relocation.
 */
u64
crashEveryOffsetOfAnUpdateRound(const StoreEngineConfig &cfg)
{
    constexpr u64 kKeys = 12;
    u64 gcCrashes = 0;
    bool crashFired = true;
    for (Bytes crashAfter = 0; crashFired; ++crashAfter) {
        if (crashAfter >= 100'000) {
            ADD_FAILURE() << "the update round never completes";
            break;
        }
        pc::nvm::FlashConfig fc;
        fc.capacity = 16 * kMiB;
        pc::nvm::FlashDevice device(fc);
        pc::simfs::FlashStore store(device);
        pc::fault::FaultPlan plan;
        store.attachFaults(&plan);
        SimTime t = 0;
        {
            StoreEngine eng(store, cfg);
            for (u64 version = 1; version <= 2; ++version) {
                for (u64 k = 0; k < kKeys; ++k)
                    EXPECT_TRUE(eng.put(k, valueFor(k, version, 100), t));
                eng.flush(t);
            }
            EXPECT_FALSE(plan.powerLost());
            plan.armCrashAfterBytes(crashAfter);
            for (u64 k = 0; k < kKeys; ++k)
                eng.put(k, valueFor(k, 3, 100), t);
            eng.flush(t);
            crashFired = plan.powerLost();
            gcCrashes += eng.gcStats().aborted;
        }
        plan.reboot();
        StoreEngine eng2(store, cfg);
        EXPECT_EQ(eng2.items(), kKeys) << "crash after " << crashAfter;
        for (u64 k = 0; k < kKeys; ++k) {
            std::string out;
            EXPECT_TRUE(eng2.get(k, out, t));
            if (out == valueFor(k, 1, 100)) {
                ADD_FAILURE() << "key " << k << " resurrected; crash after "
                              << crashAfter;
                return gcCrashes;
            }
            const bool third = out == valueFor(k, 3, 100);
            const bool second = out == valueFor(k, 2, 100);
            if (!(third || (crashFired && second))) {
                ADD_FAILURE() << "key " << k << " torn or stale; crash after "
                              << crashAfter;
                return gcCrashes;
            }
        }
    }
    return gcCrashes;
}

TEST(StoreCrashProperty, SupersededVersionNeverComesBack)
{
    // Roomy slabs: the first versions stay on flash, dead only by
    // their zeroed magic and their lower sequence numbers.
    StoreEngineConfig roomy;
    roomy.sizeClasses = {256};
    crashEveryOffsetOfAnUpdateRound(roomy);

    // 8-slot slabs: every update round crosses the half-dead trigger,
    // so crashes also land inside GC relocations.
    StoreEngineConfig tiny;
    tiny.sizeClasses = {256};
    tiny.slotsPerSlab = 8;
    EXPECT_GT(crashEveryOffsetOfAnUpdateRound(tiny), 0u)
        << "no crash landed inside a GC relocation";
}

TEST(StoreCrashProperty, GcAbortRollsBackCleanly)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    pc::fault::FaultPlan plan;
    store.attachFaults(&plan);

    StoreEngineConfig cfg;
    cfg.sizeClasses = {256};
    cfg.slotsPerSlab = 8;
    StoreEngine eng(store, cfg);

    SimTime t = 0;
    std::map<u64, std::string> ref;
    for (u64 k = 0; k < 32; ++k) {
        ref[k] = valueFor(k, 1, 150);
        ASSERT_TRUE(eng.put(k, ref[k], t));
    }
    eng.flush(t);
    // Keys 0..7 fill the first slab. Three updates leave it 3/8 dead.
    for (u64 k = 0; k < 3; ++k) {
        ref[k] = valueFor(k, 2, 150);
        ASSERT_TRUE(eng.put(k, ref[k], t));
    }
    eng.flush(t);
    ASSERT_EQ(eng.gcStats().collections, 0u);

    // The fourth update crosses the half-dead trigger. Its own slot
    // and kill fit the budget; the relocation writes of the GC that
    // follows do not.
    const Bytes updateBytes = StoreEngine::kHeaderSize + 150 + 4;
    plan.armCrashAfterBytes(updateBytes + 64);
    ref[3] = valueFor(3, 2, 150);
    ASSERT_TRUE(eng.put(3, ref[3], t));
    ASSERT_TRUE(plan.powerLost());
    ASSERT_GT(eng.gcStats().aborted, 0u);
    ASSERT_EQ(eng.gcStats().collections, 0u);

    plan.reboot();
    StoreEngine eng2(store, cfg);
    ASSERT_EQ(eng2.items(), ref.size());
    for (const auto &[key, val] : ref) {
        std::string out;
        ASSERT_TRUE(eng2.get(key, out, t));
        ASSERT_EQ(out, val);
    }
}

TEST(StoreCrashProperty, BitFlipsAreAbsorbedByChecksumRetries)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    pc::fault::FaultConfig fcfg;
    fcfg.seed = 5;
    fcfg.storage.bitFlipPerReadPerKiloErase = 0.5;
    pc::fault::FaultPlan plan(fcfg);
    store.attachFaults(&plan);

    StoreEngineConfig cfg;
    cfg.sizeClasses = {256};
    cfg.slotsPerSlab = 8;
    cfg.cache.capacityPages = 16;
    StoreEngine eng(store, cfg);

    SimTime t = 0;
    Rng rng(99);
    std::map<u64, std::string> ref;
    // Update churn drives GC, GC drives erases, erases drive flips.
    for (int step = 0; step < 1200; ++step) {
        const u64 k = rng.below(24);
        ref[k] = valueFor(k, u64(step), 120);
        ASSERT_TRUE(eng.put(k, ref[k], t));
    }
    for (const auto &[key, val] : ref) {
        std::string out;
        ASSERT_TRUE(eng.get(key, out, t)) << "key " << key;
        ASSERT_EQ(out, val) << "key " << key;
    }
    ASSERT_GT(plan.stats().bitFlips, 0u);
    ASSERT_GT(eng.stats().crcRetries, 0u);
    ASSERT_EQ(eng.stats().readFailures, 0u);

    // Recovery under the same flip rate still rebuilds exactly.
    eng.flush(t);
    StoreEngine eng2(store, cfg);
    ASSERT_EQ(eng2.items(), ref.size());
    for (const auto &[key, val] : ref) {
        std::string out;
        ASSERT_TRUE(eng2.get(key, out, t));
        ASSERT_EQ(out, val);
    }
}

} // namespace
} // namespace pc::store
