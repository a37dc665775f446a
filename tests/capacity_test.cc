/**
 * @file
 * Unit tests for the capacity projection (Figure 2) and cloudlet sizing
 * (Table 2).
 */

#include <gtest/gtest.h>

#include "nvm/capacity.h"

namespace pc::nvm {
namespace {

class CapacityFixture : public ::testing::Test
{
  protected:
    TechRoadmap roadmap_;
    CapacityProjection proj_{roadmap_};
};

TEST_F(CapacityFixture, BaselineYearIsUnityMultiplier)
{
    for (const auto &flags : CapacityProjection::figure2Scenarios())
        EXPECT_DOUBLE_EQ(proj_.multiplier(2010, flags), 1.0);
}

TEST_F(CapacityFixture, HighEndReachesTerabyteBy2018)
{
    // The paper's headline projection: ~1 TB of NVM in high-end phones
    // as early as 2018 (all techniques applied).
    ScenarioFlags all{true, true, true, true};
    const auto pt = proj_.project(2018, all);
    EXPECT_GE(pt.highEnd, 1024ull * kGiB);
    EXPECT_EQ(proj_.yearCapacityReaches(1024ull * kGiB, all), 2018);
}

TEST_F(CapacityFixture, LowEndIs64xBehind)
{
    ScenarioFlags all{true, true, true, true};
    const auto pt = proj_.project(2018, all);
    EXPECT_EQ(pt.lowEnd, pt.highEnd / 64);
    // Low-end phones hit 16 GB in 2018 per the paper.
    EXPECT_EQ(pt.lowEnd, 16ull * kGiB);
}

TEST_F(CapacityFixture, LowEndReaches256GBEventually)
{
    ScenarioFlags all{true, true, true, true};
    bool reached = false;
    for (const auto &node : roadmap_.nodes()) {
        if (proj_.project(node.year, all).lowEnd >= 256ull * kGiB)
            reached = true;
    }
    EXPECT_TRUE(reached) << "paper: low-end may eventually reach 256 GB";
}

TEST_F(CapacityFixture, ScenariosAreCumulativelyLargerThroughFlashEra)
{
    // Each added technique grows capacity while flash scales (through
    // 2018). Post-2018 the MLC term *shrinks* capacity (bits per cell
    // fall back to 1), so the ordering legitimately inverts there.
    const auto scenarios = CapacityProjection::figure2Scenarios();
    ASSERT_EQ(scenarios.size(), 4u);
    for (const auto &node : roadmap_.nodes()) {
        if (node.year > 2018)
            break;
        Bytes prev = 0;
        for (const auto &flags : scenarios) {
            const Bytes cap = proj_.project(node.year, flags).highEnd;
            EXPECT_GE(cap, prev)
                << "scenario " << flags.name() << " year " << node.year;
            prev = cap;
        }
    }
}

TEST_F(CapacityFixture, MlcTermShrinksCapacityPost2018)
{
    // Bits per cell drop from 2 to 1 by 2020: the full scenario is
    // half the scaling+stacking scenario from then on.
    ScenarioFlags no_mlc{true, true, true, false};
    ScenarioFlags all{true, true, true, true};
    EXPECT_EQ(proj_.project(2020, all).highEnd,
              proj_.project(2020, no_mlc).highEnd / 2);
}

TEST_F(CapacityFixture, SeriesMonotoneExceptMlcDecline)
{
    // Capacity never shrinks over time for the scaling-only scenario.
    ScenarioFlags scaling_only{true, false, false, false};
    Bytes prev = 0;
    for (const auto &node : roadmap_.nodes()) {
        const Bytes highEnd = proj_.project(node.year, scaling_only).highEnd;
        EXPECT_GE(highEnd, prev) << node.year;
        prev = highEnd;
    }
}

TEST_F(CapacityFixture, MlcSceneDipsWhenBitsPerCellDrops)
{
    // Bits per cell go 2 -> 3 -> 2: the MLC-only contribution peaks in
    // 2012 then falls back; the full scenario still grows because
    // density gains dominate.
    ScenarioFlags all{true, true, true, true};
    const double m2012 = proj_.multiplier(2012, all);
    const double m2014 = proj_.multiplier(2014, all);
    EXPECT_GT(m2014, m2012 * 0.9)
        << "density+stacking must offset the MLC retreat";
}

TEST(ScenarioFlags, NameListsTechniques)
{
    EXPECT_EQ((ScenarioFlags{true, false, false, false}.name()),
              "scaling");
    EXPECT_EQ((ScenarioFlags{true, true, true, true}.name()),
              "scaling+chip-stack+cell-stack+mlc");
    EXPECT_EQ((ScenarioFlags{false, false, false, false}.name()), "none");
}

TEST(Table2, ItemCountsMatchPaper)
{
    // 25.6 GB budget (10% of the projected 256 GB low-end part).
    const Bytes budget = Bytes(25.6 * double(kGiB));
    const auto specs = table2Specs();
    ASSERT_EQ(specs.size(), 5u);

    // Paper's Table 2 counts (approximate; GiB vs GB rounding).
    const u64 search = itemsInBudget(budget, specs[0].itemSize);
    EXPECT_NEAR(double(search), 270'000.0, 15'000.0);

    const u64 ads = itemsInBudget(budget, specs[1].itemSize);
    EXPECT_NEAR(double(ads), 5'500'000.0, 200'000.0);

    const u64 web = itemsInBudget(budget, specs[3].itemSize);
    EXPECT_NEAR(double(web), 17'500.0, 1'000.0);
}

TEST(Table2, WebBrowsingNeedsCovered)
{
    // "90% of mobile users visit fewer than 1000 URLs over several
    // months, 17x fewer than the cacheable count".
    const Bytes budget = Bytes(25.6 * double(kGiB));
    const u64 pages = itemsInBudget(budget, table2Specs()[3].itemSize);
    EXPECT_GE(pages, 17u * 1000u);
}

TEST(ItemsInBudgetDeath, ZeroItemSizePanics)
{
    EXPECT_DEATH((void)itemsInBudget(kGiB, 0), "positive");
}

} // namespace
} // namespace pc::nvm
