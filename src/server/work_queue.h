/**
 * @file
 * Bounded multi-producer/multi-consumer work queue with backpressure.
 *
 * A producer that outruns its consumers blocks in push() until a slot
 * frees up, so the items in flight never exceed the capacity. Items
 * only need to be movable, so move-only payloads flow through without
 * copies. Neither worker pool in src/ uses it: the model builder and
 * the parallel fleet both claim work by index off an array already in
 * memory (server/builder.cc, harness/in_order.h). Its users are the
 * host-time benchmark's fleet driver (perfbench/) and its own tests.
 *
 * Concurrency contract (ThreadSanitizer-checked in CI):
 *  - any number of producers and consumers may call push()/pop()
 *    concurrently;
 *  - close() wakes everyone: blocked producers return false, blocked
 *    consumers drain the remaining items and then return false;
 *  - depth watermarks are tracked under the queue lock, so
 *    maxDepth() is exact (but timing-dependent — never put it in a
 *    byte-deterministic report).
 */

#ifndef PC_SERVER_WORK_QUEUE_H
#define PC_SERVER_WORK_QUEUE_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "util/logging.h"
#include "util/types.h"

namespace pc::server {

/**
 * Bounded MPMC queue of T. See file comment for the contract.
 */
template <typename T>
class WorkQueue
{
  public:
    /** @param capacity Maximum items in flight (> 0). */
    explicit WorkQueue(std::size_t capacity) : capacity_(capacity)
    {
        pc_assert(capacity > 0, "WorkQueue needs capacity >= 1");
    }

    WorkQueue(const WorkQueue &) = delete;
    WorkQueue &operator=(const WorkQueue &) = delete;

    /**
     * Block until a slot is free, then enqueue. @return False if the
     * queue was closed before the item could be enqueued.
     */
    bool
    push(T item)
    {
        std::unique_lock<std::mutex> lk(mu_);
        notFull_.wait(lk, [&] {
            return closed_ || items_.size() < capacity_;
        });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        ++pushes_;
        depthSum_ += items_.size();
        if (items_.size() > maxDepth_)
            maxDepth_ = items_.size();
        lk.unlock();
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Enqueue only if a slot is free right now (no blocking).
     * @return False when full or closed.
     */
    bool
    tryPush(T item)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
            ++pushes_;
            depthSum_ += items_.size();
            if (items_.size() > maxDepth_)
                maxDepth_ = items_.size();
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Block until an item is available, then dequeue into `out`.
     * @return False once the queue is closed *and* drained.
     */
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lk(mu_);
        notEmpty_.wait(lk, [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return false; // closed and drained
        out = std::move(items_.front());
        items_.pop_front();
        lk.unlock();
        notFull_.notify_one();
        return true;
    }

    /**
     * Dequeue only if an item is available right now (no blocking).
     * @return False when empty (closed or not) — poll closed() to
     * tell "momentarily empty" from "done", as pop() does internally.
     */
    bool
    tryPop(T &out)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (items_.empty())
                return false;
            out = std::move(items_.front());
            items_.pop_front();
        }
        notFull_.notify_one();
        return true;
    }

    /**
     * Close the queue: producers fail fast, consumers drain what is
     * left. Idempotent.
     */
    void
    close()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            closed_ = true;
        }
        notEmpty_.notify_all();
        notFull_.notify_all();
    }

    /** True once close() has been called. */
    bool
    closed() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return closed_;
    }

    /** Items currently queued (racy the instant it returns). */
    std::size_t
    depth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return items_.size();
    }

    /** Configured capacity. */
    std::size_t capacity() const { return capacity_; }

    /** Highest depth ever observed at a push (exact; timing-dependent). */
    std::size_t
    maxDepth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return maxDepth_;
    }

    /** Mean depth observed at pushes (timing-dependent). */
    double
    meanDepth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return pushes_ ? double(depthSum_) / double(pushes_) : 0.0;
    }

    /** Total successful pushes. */
    u64
    pushes() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return pushes_;
    }

  private:
    const std::size_t capacity_;
    mutable std::mutex mu_;
    std::condition_variable notEmpty_;
    std::condition_variable notFull_;
    std::deque<T> items_;
    bool closed_ = false;
    std::size_t maxDepth_ = 0;
    u64 depthSum_ = 0;
    u64 pushes_ = 0;
};

} // namespace pc::server

#endif // PC_SERVER_WORK_QUEUE_H
