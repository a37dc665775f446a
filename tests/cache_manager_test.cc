/**
 * @file
 * Unit tests for the Figure 14 cache update protocol.
 */

#include <gtest/gtest.h>

#include "core/cache_manager.h"

namespace pc::core {
namespace {

workload::UniverseConfig
tinyUniverse()
{
    workload::UniverseConfig cfg;
    cfg.navResults = 200;
    cfg.nonNavResults = 800;
    cfg.navHead = 30;
    cfg.nonNavHead = 30;
    cfg.habitNavHead = 20;
    cfg.habitNonNavHead = 15;
    return cfg;
}

class CacheManagerTest : public ::testing::Test
{
  protected:
    CacheManagerTest() : uni_(tinyUniverse()), manager_(uni_)
    {
        pc::nvm::FlashConfig fc;
        fc.capacity = 64 * kMiB;
        device_ = std::make_unique<pc::nvm::FlashDevice>(fc);
        store_ = std::make_unique<pc::simfs::FlashStore>(*device_);
        ps_ = std::make_unique<PocketSearch>(uni_, *store_);
    }

    workload::PairRef
    canonicalPair(u32 result)
    {
        return {uni_.result(result).queries.front().first, result};
    }

    /** Log with volume per pair, for building fresh triplet tables. */
    logs::TripletTable
    makeTable(const std::vector<std::pair<workload::PairRef, int>> &pvs)
    {
        workload::SearchLog log(uni_);
        for (const auto &[pair, vol] : pvs) {
            for (int i = 0; i < vol; ++i) {
                log.add({1, SimTime(i), pair,
                         workload::DeviceType::Smartphone});
            }
        }
        return logs::TripletTable::fromLog(log);
    }

    UpdatePolicy
    fullPolicy()
    {
        UpdatePolicy p;
        p.content.kind = ThresholdKind::VolumeShare;
        p.content.volumeShare = 1.0;
        return p;
    }

    workload::QueryUniverse uni_;
    CacheManager manager_;
    std::unique_ptr<pc::nvm::FlashDevice> device_;
    std::unique_ptr<pc::simfs::FlashStore> store_;
    std::unique_ptr<PocketSearch> ps_;
};

TEST_F(CacheManagerTest, PrunesUntouchedCommunityPairs)
{
    SimTime t = 0;
    CacheContentBuilder builder(uni_);
    const auto old_table = makeTable({{canonicalPair(0), 10},
                                      {canonicalPair(1), 5}});
    ps_->loadCommunity(builder.build(old_table, fullPolicy().content), t);
    EXPECT_EQ(ps_->pairs(), 2u);

    // Fresh month: only pair 2 is popular; the user touched nothing.
    const auto fresh = makeTable({{canonicalPair(2), 8}});
    const auto stats =
        manager_.update(*ps_, fresh, fullPolicy(), t);
    EXPECT_EQ(stats.pairsPruned, 2u);
    EXPECT_EQ(stats.pairsAdded, 1u);
    EXPECT_EQ(ps_->pairs(), 1u);
    EXPECT_TRUE(ps_->containsPair(canonicalPair(2)));
    EXPECT_FALSE(ps_->containsPair(canonicalPair(0)));

    // The cycle accounting folds into a metrics registry under
    // "core.update.*" and accumulates across cycles.
    obs::MetricRegistry reg;
    stats.publishMetrics(reg);
    stats.publishMetrics(reg);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counterValue("core.update.pairs_pruned"), 4u);
    EXPECT_EQ(snap.counterValue("core.update.pairs_added"), 2u);
    EXPECT_EQ(snap.counterValue("core.update.bytes_to_server"),
              2 * stats.bytesToServer);
    EXPECT_EQ(snap.counterValue("core.update.records_patched"),
              2 * stats.recordsPatched);
}

TEST_F(CacheManagerTest, KeepsUserAccessedPairs)
{
    SimTime t = 0;
    CacheContentBuilder builder(uni_);
    const auto old_table = makeTable({{canonicalPair(0), 10}});
    ps_->loadCommunity(builder.build(old_table, fullPolicy().content), t);
    // The user clicked pair 0 (flag set) and learned pair 42.
    ps_->recordClick(canonicalPair(0), t);
    ps_->recordClick(canonicalPair(42), t);

    const auto fresh = makeTable({{canonicalPair(2), 8}});
    const auto stats = manager_.update(*ps_, fresh, fullPolicy(), t);
    EXPECT_EQ(stats.pairsKept, 2u);
    EXPECT_TRUE(ps_->containsPair(canonicalPair(0)));
    EXPECT_TRUE(ps_->containsPair(canonicalPair(42)));
    EXPECT_TRUE(ps_->containsPair(canonicalPair(2)));
}

TEST_F(CacheManagerTest, ExpiresDecayedUserPairs)
{
    SimTime t = 0;
    // The user once clicked pair 5, but its score has decayed away.
    ps_->recordClick(canonicalPair(5), t);
    ps_->table().setScore(uni_.query(canonicalPair(5).query).text,
                          urlHash(uni_.result(5).url), 0.01);
    UpdatePolicy policy = fullPolicy();
    policy.expiryScore = 0.05;
    const auto fresh = makeTable({{canonicalPair(2), 8}});
    const auto stats = manager_.update(*ps_, fresh, policy, t);
    EXPECT_EQ(stats.pairsExpired, 1u);
    EXPECT_FALSE(ps_->containsPair(canonicalPair(5)));
}

TEST_F(CacheManagerTest, ConflictKeepsMaxScore)
{
    SimTime t = 0;
    // The user clicked pair 0 many times: device score 3.0 exceeds any
    // normalized fresh score.
    for (int i = 0; i < 3; ++i)
        ps_->recordClick(canonicalPair(0), t);
    const auto fresh = makeTable({{canonicalPair(0), 8}});
    const auto stats = manager_.update(*ps_, fresh, fullPolicy(), t);
    EXPECT_EQ(stats.conflicts, 1u);
    const auto refs =
        ps_->table().lookup(uni_.query(canonicalPair(0).query).text);
    ASSERT_EQ(refs.size(), 1u);
    EXPECT_NEAR(refs[0].score, 3.0, 1e-9)
        << "conflict resolution adopts the maximum score";
    EXPECT_TRUE(refs[0].userAccessed) << "accessed flag survives update";
}

TEST_F(CacheManagerTest, PatchesOnlyMissingRecords)
{
    SimTime t = 0;
    CacheContentBuilder builder(uni_);
    const auto old_table = makeTable({{canonicalPair(0), 10}});
    ps_->loadCommunity(builder.build(old_table, fullPolicy().content), t);
    ps_->recordClick(canonicalPair(0), t); // keep it across the update
    const auto fresh = makeTable({{canonicalPair(0), 9},
                                  {canonicalPair(7), 8}});
    const auto stats = manager_.update(*ps_, fresh, fullPolicy(), t);
    EXPECT_EQ(stats.recordsPatched, 1u)
        << "record 0 already on the phone; only 7 ships";
    EXPECT_TRUE(ps_->db().contains(urlHash(uni_.result(7).url)));
}

TEST_F(CacheManagerTest, ByteAccountingIsPlausible)
{
    SimTime t = 0;
    CacheContentBuilder builder(uni_);
    std::vector<std::pair<workload::PairRef, int>> pvs;
    for (u32 i = 0; i < 50; ++i)
        pvs.push_back({canonicalPair(i), 100 - int(i)});
    const auto table = makeTable(pvs);
    ps_->loadCommunity(builder.build(table, fullPolicy().content), t);
    const auto stats = manager_.update(*ps_, table, fullPolicy(), t);
    // The upload is the encoded wire blob: one fixed-width record per
    // cached pair (cheaper than the in-memory table with its container
    // overhead and empty slots).
    EXPECT_EQ(stats.bytesToServer, wireSize(50));
    EXPECT_LE(stats.bytesToServer, ps_->dramBytes());
    EXPECT_GE(stats.bytesToPhone, ps_->dramBytes());
    // The paper: the whole exchange stays under ~1.5 MB.
    EXPECT_LT(stats.bytesToPhone, Bytes(1.5 * double(kMiB)));
}

TEST_F(CacheManagerTest, UpdateIsIdempotentOnSameLogs)
{
    SimTime t = 0;
    const auto fresh = makeTable({{canonicalPair(0), 10},
                                  {canonicalPair(1), 5}});
    manager_.update(*ps_, fresh, fullPolicy(), t);
    const auto pairs_after_first = ps_->pairs();
    const auto stats = manager_.update(*ps_, fresh, fullPolicy(), t);
    EXPECT_EQ(ps_->pairs(), pairs_after_first);
    EXPECT_EQ(stats.recordsPatched, 0u);
}

} // namespace
} // namespace pc::core
