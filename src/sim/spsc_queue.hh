/**
 * @file
 * Bounded single-producer/single-consumer ring queue.
 *
 * The paper's fault queue and prefetch queue are SPSC queues between
 * the DeepUM driver's kernel threads (Section 3.1). The simulator is
 * single-threaded, so no atomics are needed — the value of this class
 * is the bounded-ring semantics (capacity, overflow accounting) and a
 * single audited implementation for both queues.
 *
 * The ring starts empty and doubles whenever a push finds it full
 * below its bound, so a run pays only for the depth it reaches. At
 * the bound a push is dropped and counted, exactly as by a ring
 * allocated at full capacity up front.
 */

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/logging.hh"

namespace deepum::sim {

/** FIFO ring that grows up to a fixed capacity. */
template <typename T>
class SpscQueue
{
  public:
    /** @param capacity maximum queued elements (>= 1) */
    explicit SpscQueue(std::size_t capacity)
        : bound_(capacity)
    {
        DEEPUM_ASSERT(capacity >= 1, "SpscQueue capacity must be >= 1");
    }

    /** @return true if the element was enqueued (false when full). */
    bool
    push(const T &v)
    {
        if (size_ == buf_.size()) {
            if (size_ == bound_) {
                ++dropped_;
                return false;
            }
            grow();
        }
        buf_[tail_] = v;
        tail_ = inc(tail_);
        ++size_;
        ++pushed_;
        return true;
    }

    /** Dequeue into @p out. @return false when empty. */
    bool
    pop(T &out)
    {
        if (empty())
            return false;
        out = buf_[head_];
        head_ = inc(head_);
        --size_;
        return true;
    }

    /** Peek at the front element; queue must not be empty. */
    const T &
    front() const
    {
        DEEPUM_ASSERT(!empty(), "front() on empty SpscQueue");
        return buf_[head_];
    }

    bool empty() const { return size_ == 0; }

    std::size_t size() const { return size_; }

    /** The bound: the most elements the queue ever holds. */
    std::size_t capacity() const { return bound_; }

    /** Total successful pushes. */
    std::uint64_t pushed() const { return pushed_; }

    /** Pushes rejected because the ring was full. */
    std::uint64_t dropped() const { return dropped_; }

    /** Remove every element (the ring keeps its size). */
    void clear() { head_ = tail_ = size_ = 0; }

    /** Visit every queued element front to back (validation). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t k = 0, i = head_; k != size_; ++k, i = inc(i))
            fn(buf_[i]);
    }

  private:
    /// Slots of the first ring, allocated by the first push.
    static constexpr std::size_t kFirstRing = 16;

    std::size_t
    inc(std::size_t i) const
    {
        return i + 1 == buf_.size() ? 0 : i + 1;
    }

    /** Double the full ring, up to the bound; head..tail move to the
     * front in FIFO order. */
    void
    grow()
    {
        std::vector<T> next(
            std::min(bound_, std::max(kFirstRing, 2 * buf_.size())));
        for (std::size_t k = 0, i = head_; k != size_; ++k, i = inc(i))
            next[k] = buf_[i];
        buf_.swap(next);
        head_ = 0;
        tail_ = size_;
    }

    std::vector<T> buf_;
    std::size_t bound_;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
    std::size_t size_ = 0;
    std::uint64_t pushed_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace deepum::sim
