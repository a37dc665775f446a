/**
 * @file
 * forEachInOrder tests: the claimed-but-unfolded bound holds behind a
 * stalled index, results reach consume() strictly in index order
 * whatever order workers finish in, the empty-range and
 * more-threads-than-indices edges terminate cleanly, and an exception
 * from either callback stops the run and reaches the caller.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "harness/in_order.h"

namespace pc::harness {
namespace {

/**
 * Index 0 stalls until indices 1..window-1 are done, then waits long
 * enough for the other workers to park at the window edge. No index
 * >= window may be claimed until 0 is consumed, and at every claim
 * fewer than `window` indices may be ahead of the fold.
 */
TEST(ForEachInOrder, NoClaimBeyondTheWindowBehindAStalledIndex)
{
    constexpr std::size_t kN = 64;
    constexpr unsigned kThreads = 4;
    constexpr std::size_t kWindow = 8;

    std::atomic<std::size_t> othersDone{0};
    std::atomic<std::size_t> consumed{0};
    std::atomic<std::size_t> claimedEarly{0}; // >= window, 0 unfolded
    std::atomic<std::size_t> overWindow{0};   // >= consumed + window
    std::vector<std::size_t> order;

    forEachInOrder(
        kN, kThreads, kWindow,
        [&](std::size_t i) {
            if (i >= consumed.load() + kWindow)
                ++overWindow;
            if (i == 0) {
                while (othersDone.load() < kWindow - 1)
                    std::this_thread::yield();
                // The other workers now want index kWindow; give any
                // of them that could claim it time to do so.
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
            } else {
                if (i >= kWindow && consumed.load() == 0)
                    ++claimedEarly;
                ++othersDone;
            }
            return i;
        },
        [&](std::size_t i) {
            order.push_back(i);
            ++consumed;
        });

    EXPECT_EQ(claimedEarly.load(), 0u);
    EXPECT_EQ(overWindow.load(), 0u);
    ASSERT_EQ(order.size(), kN);
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(order[i], i);
}

/**
 * Workers finish out of order (per-index delays) and hand back
 * move-only results; consume() still sees 0..n-1 in order and the
 * window bound holds at every claim.
 */
TEST(ForEachInOrder, ConsumesInIndexOrderWhateverTheFinishOrder)
{
    constexpr std::size_t kN = 200;
    constexpr std::size_t kWindow = 5;
    for (unsigned threads : {1u, 2u, 3u, 7u}) {
        std::atomic<std::size_t> consumed{0};
        std::atomic<std::size_t> overWindow{0};
        std::vector<std::size_t> order;
        forEachInOrder(
            kN, threads, kWindow,
            [&](std::size_t i) {
                if (i >= consumed.load() + kWindow)
                    ++overWindow;
                std::this_thread::sleep_for(
                    std::chrono::microseconds((i * 7919) % 300));
                return std::make_unique<std::size_t>(i);
            },
            [&](std::unique_ptr<std::size_t> &&v) {
                order.push_back(*v);
                ++consumed;
            });
        EXPECT_EQ(overWindow.load(), 0u) << "threads=" << threads;
        ASSERT_EQ(order.size(), kN) << "threads=" << threads;
        for (std::size_t i = 0; i < kN; ++i)
            EXPECT_EQ(order[i], i) << "threads=" << threads;
    }
}

TEST(ForEachInOrder, EmptyRangeCallsNothing)
{
    std::atomic<int> calls{0};
    forEachInOrder(
        0, 4, 16,
        [&](std::size_t i) {
            ++calls;
            return i;
        },
        [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ForEachInOrder, MoreThreadsThanIndices)
{
    for (std::size_t window : {1u, 2u, 64u}) {
        std::vector<std::size_t> order;
        forEachInOrder(
            3, 8, window, [](std::size_t i) { return i * 10; },
            [&](std::size_t v) { order.push_back(v); });
        EXPECT_EQ(order, (std::vector<std::size_t>{0, 10, 20}))
            << "window=" << window;
    }
}

TEST(ForEachInOrder, ProduceExceptionStopsTheRunAndReachesTheCaller)
{
    for (unsigned threads : {1u, 3u}) {
        std::vector<std::size_t> order;
        EXPECT_THROW(
            forEachInOrder(
                100, threads, 4,
                [](std::size_t i) {
                    if (i == 5)
                        throw std::runtime_error("device 5 failed");
                    return i;
                },
                [&](std::size_t i) { order.push_back(i); }),
            std::runtime_error);
        // Only a prefix below the failed index is folded, in order.
        ASSERT_LE(order.size(), 5u) << "threads=" << threads;
        for (std::size_t i = 0; i < order.size(); ++i)
            EXPECT_EQ(order[i], i) << "threads=" << threads;
    }
}

TEST(ForEachInOrder, ConsumeExceptionStopsTheRunAndReachesTheCaller)
{
    std::atomic<std::size_t> produced{0};
    std::vector<std::size_t> order;
    EXPECT_THROW(
        forEachInOrder(
            100, 3, 4,
            [&](std::size_t i) {
                ++produced;
                return i;
            },
            [&](std::size_t i) {
                order.push_back(i);
                if (i == 3)
                    throw std::runtime_error("fold failed");
            }),
        std::runtime_error);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3}));
    // Index 3 was consumed with 3 folded: claims stopped below 3 + 4.
    EXPECT_LE(produced.load(), 7u);
}

} // namespace
} // namespace pc::harness
