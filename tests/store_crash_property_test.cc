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
 *  - a removed-and-acknowledged key never resurrects;
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
 * Runs a randomized workload against an engine with a crash armed,
 * tracking the acknowledged state (at the last successful flush) and
 * everything written since. After the crash fires, reboots, re-attaches
 * and checks the recovered state against the contract.
 */
void
runCrashRound(u64 seed, const StoreEngineConfig &cfg, Bytes crashAfter)
{
    pc::nvm::FlashConfig fc;
    fc.capacity = 64 * kMiB;
    pc::nvm::FlashDevice device(fc);
    pc::simfs::FlashStore store(device);
    pc::fault::FaultConfig fcfg;
    fcfg.seed = seed;
    pc::fault::FaultPlan plan(fcfg);
    store.attachFaults(&plan);

    Rng rng(seed * 31 + 7);
    SimTime t = 0;

    // Acknowledged state and the not-yet-acknowledged deltas on top.
    std::map<u64, std::string> acked;
    std::map<u64, std::set<std::string>> pendingValues;
    std::set<u64> pendingRemoves;
    u64 version = 0;

    {
        StoreEngine eng(store, cfg);

        // Warm-up phase before the crash is armed, fully acknowledged.
        for (int i = 0; i < 60; ++i) {
            const u64 k = rng.below(40);
            const std::string v = valueFor(k, ++version, 30 + rng.below(180));
            ASSERT_TRUE(eng.put(k, v, t));
            acked[k] = v;
        }
        eng.flush(t);
        ASSERT_FALSE(plan.powerLost());

        plan.armCrashAfterBytes(crashAfter);
        for (int i = 0; i < 4000 && !plan.powerLost(); ++i) {
            const u64 k = rng.below(40);
            const u64 op = rng.below(100);
            if (op < 55) {
                const std::string v =
                    valueFor(k, ++version, 30 + rng.below(180));
                if (eng.put(k, v, t)) {
                    pendingValues[k].insert(v);
                    pendingRemoves.erase(k);
                }
            } else if (op < 75) {
                if (eng.remove(k, t))
                    pendingRemoves.insert(k);
            } else {
                eng.flush(t);
                if (!plan.powerLost()) {
                    // Everything queued so far is now acknowledged:
                    // refresh the acked view of every touched key from
                    // the engine's own (now durable) state.
                    std::set<u64> touched = pendingRemoves;
                    for (const auto &[key, vals] : pendingValues)
                        touched.insert(key);
                    for (u64 key : touched) {
                        std::string out;
                        SimTime rt = 0;
                        if (eng.get(key, out, rt))
                            acked[key] = out;
                        else
                            acked.erase(key);
                    }
                    pendingValues.clear();
                    pendingRemoves.clear();
                }
            }
        }
        ASSERT_TRUE(plan.powerLost()) << "crash never fired; seed " << seed;
    }

    // Power back on; attach a fresh engine to the surviving flash.
    plan.reboot();
    StoreEngine eng2(store, cfg);

    SimTime rt = 0;
    for (const auto &[key, val] : acked) {
        std::string out;
        const bool found = eng2.get(key, out, rt);
        if (pendingRemoves.count(key)) {
            // The remove may or may not have been programmed; either
            // outcome is allowed, but a recovered value must be real.
            if (found) {
                ASSERT_TRUE(out == val ||
                            pendingValues[key].count(out) > 0);
            }
            continue;
        }
        ASSERT_TRUE(found) << "acknowledged key " << key
                           << " lost; seed " << seed;
        ASSERT_TRUE(out == val || pendingValues[key].count(out) > 0)
            << "key " << key << " recovered a torn value; seed " << seed;
    }
    // No resurrections or inventions: every recovered key was written.
    for (const u64 key : eng2.keys()) {
        ASSERT_TRUE(acked.count(key) || pendingValues.count(key))
            << "key " << key << " resurrected; seed " << seed;
    }
}

TEST(StoreCrashProperty, AcknowledgedWritesSurviveTornCrashes)
{
    StoreEngineConfig cfg;
    cfg.slotsPerSlab = 16;
    for (u64 seed = 1; seed <= 8; ++seed)
        runCrashRound(seed, cfg, 2000 + seed * 1777);
}

TEST(StoreCrashProperty, UnbatchedEngineSurvivesTornCrashes)
{
    StoreEngineConfig cfg;
    cfg.slotsPerSlab = 16;
    cfg.batchWindow = 0; // every write issues immediately
    for (u64 seed = 20; seed <= 24; ++seed)
        runCrashRound(seed, cfg, 1000 + seed * 997);
}

TEST(StoreCrashProperty, GcNeverLosesAcknowledgedWrites)
{
    // Tiny slabs + aggressive threshold: the workload GCs constantly,
    // so crashes regularly land around relocations.
    StoreEngineConfig cfg;
    cfg.sizeClasses = {256};
    cfg.slotsPerSlab = 8;
    cfg.gcDeadFraction = 0.25;
    for (u64 seed = 40; seed <= 47; ++seed)
        runCrashRound(seed, cfg, 3000 + seed * 1511);
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
    cfg.gcAuto = false;
    StoreEngine eng(store, cfg);

    SimTime t = 0;
    std::map<u64, std::string> ref;
    for (u64 k = 0; k < 32; ++k) {
        ref[k] = valueFor(k, 1, 150);
        ASSERT_TRUE(eng.put(k, ref[k], t));
    }
    eng.flush(t);
    for (u64 k = 0; k < 32; k += 2) {
        ASSERT_TRUE(eng.remove(k, t));
        ref.erase(k);
    }
    eng.flush(t);

    // Give GC a budget too small for its relocation writes.
    plan.armCrashAfterBytes(64);
    eng.gcSweep(t);
    ASSERT_GT(eng.gcStats().aborted, 0u);

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
    cfg.gcDeadFraction = 0.25;
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
