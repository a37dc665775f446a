/**
 * @file
 * In-order parallel map over an index range, with a bounded window.
 *
 * forEachInOrder(n, threads, window, produce, consume) runs produce(i)
 * for every i in [0, n) on worker threads and hands each result to
 * consume() on the calling thread, strictly in index order 0, 1, ...,
 * n-1. The work is an index range already in memory, so there is no
 * queue:
 *
 *  - workers claim indices in increasing order from one shared
 *    counter, but never an index >= folded + window, where `folded`
 *    counts the results consume() has returned from;
 *  - the result of index i lands in slot i % window;
 *  - the fold takes slot next % window once it is filled.
 *
 * So at most `window` indices are ever claimed but not yet folded,
 * however slow any one produce() call is: behind a slow index the
 * workers park instead of piling up results. The parallel fleet fold
 * (harness/fleet.cc) runs on it with a window of 16 x threads.
 *
 * Concurrency contract (ThreadSanitizer-checked in CI): produce() runs
 * concurrently with itself and with consume(); consume() only ever
 * runs on the calling thread, one call at a time. The first exception
 * either one throws stops the run: no further index is claimed or
 * consumed, every worker is joined, and the exception is rethrown to
 * the caller.
 */

#ifndef PC_HARNESS_IN_ORDER_H
#define PC_HARNESS_IN_ORDER_H

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace pc::harness {

/**
 * Run produce(i) for i in [0, n) on up to `threads` workers and
 * consume(result) in index order on the calling thread, with at most
 * `window` indices claimed but not yet folded. See the file comment.
 *
 * @param n Indices to run.
 * @param threads Worker threads (>= 1; no more than n are started).
 * @param window Claimed-but-unfolded bound (>= 1).
 * @param produce `T(std::size_t i)`; T only needs to be movable.
 * @param consume `void(T &&)`.
 */
template <typename Produce, typename Consume>
void
forEachInOrder(std::size_t n, unsigned threads, std::size_t window,
               Produce &&produce, Consume &&consume)
{
    using T = std::invoke_result_t<Produce &, std::size_t>;
    pc_assert(threads >= 1, "forEachInOrder needs a worker thread");
    pc_assert(window >= 1, "forEachInOrder needs a window of at least 1");

    std::mutex mu;
    std::condition_variable windowMoved; // workers wait for the fold
    std::condition_variable slotFilled;  // the fold waits for a result
    std::vector<std::optional<T>> slots(window);
    std::size_t claimed = 0; // next index to hand out
    std::size_t folded = 0;  // results consume() has returned from
    std::exception_ptr failure; // first exception; stops the run

    const auto work = [&] {
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            windowMoved.wait(lk, [&] {
                return failure || claimed == n ||
                       claimed < folded + window;
            });
            if (failure || claimed == n)
                return;
            const std::size_t i = claimed++;
            lk.unlock();
            std::optional<T> value;
            std::exception_ptr error;
            try {
                value.emplace(produce(i));
            } catch (...) {
                error = std::current_exception();
            }
            lk.lock();
            if (error) {
                if (!failure)
                    failure = error;
                windowMoved.notify_all();
            } else {
                slots[i % window] = std::move(value);
            }
            slotFilled.notify_one();
        }
    };
    const std::size_t workers = std::min<std::size_t>(threads, n);
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w)
        pool.emplace_back(work);

    for (std::size_t next = 0; next < n; ++next) {
        std::optional<T> &slot = slots[next % window];
        std::unique_lock<std::mutex> lk(mu);
        slotFilled.wait(lk, [&] { return failure || slot.has_value(); });
        if (failure)
            break;
        T value = std::move(*slot);
        slot.reset();
        lk.unlock();
        std::exception_ptr error;
        try {
            consume(std::move(value));
        } catch (...) {
            error = std::current_exception();
        }
        lk.lock();
        folded = next + 1;
        if (!failure)
            failure = error;
        lk.unlock();
        windowMoved.notify_all();
    }
    for (auto &th : pool)
        th.join();
    if (failure)
        std::rethrow_exception(failure);
}

} // namespace pc::harness

#endif // PC_HARNESS_IN_ORDER_H
