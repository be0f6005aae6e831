/**
 * @file
 * The PCIe copy path shared by demand migration, prefetching,
 * eviction write-back, and baseline tensor swapping.
 *
 * One serial resource: callers reserve it for a transfer and get the
 * completion time back. Serializing both directions slightly
 * pessimizes against real full-duplex PCIe, which is conservative
 * for DeepUM (prefetch and write-back contend in our model).
 */

#pragma once

#include <cstdint>

#include "gpu/timing.hh"
#include "sim/types.hh"

namespace deepum::sim {
class Tracer;
}

namespace deepum::gpu {

/** Transfer direction, for statistics. */
enum class Dir { HostToDev, DevToHost };

/** A serially-reserved copy engine with bandwidth + setup latency. */
class PcieLink
{
  public:
    explicit PcieLink(const TimingConfig &cfg) : cfg_(cfg) {}

    /** Attach a tracer that records one span per transferred piece. */
    void setTracer(sim::Tracer *t) { tracer_ = t; }

    /**
     * Reserve the link for @p bytes starting no earlier than @p now.
     * @return the completion tick.
     */
    sim::Tick
    acquire(sim::Tick now, std::uint64_t bytes, Dir dir)
    {
        return reserve(now, bytes, 1, 0, 0, dir);
    }

    /**
     * Reserve the link for @p bytes moved in @p chunk-byte pieces (the
     * last one partial), each piece paying the setup latency and each
     * after the first starting @p gap ticks after the previous one
     * completes: the same reservations, busy time, byte counts and
     * trace spans as one acquire() per piece with @p gap added after
     * each, in one closed-form step. @p chunk must be nonzero.
     * @return @p gap past the last piece's completion; @p now when
     * @p bytes is 0.
     */
    sim::Tick
    acquireChunked(sim::Tick now, std::uint64_t bytes, std::uint64_t chunk,
                   sim::Tick gap, Dir dir)
    {
        return reserve(now, chunk, bytes / chunk, bytes % chunk, gap, dir);
    }

    /** Earliest tick a new transfer could start. */
    sim::Tick freeAt() const { return busyUntil_; }

    /** True if the link is idle at @p now. */
    bool idleAt(sim::Tick now) const { return busyUntil_ <= now; }

    std::uint64_t bytesHtoD() const { return bytesHtoD_; }
    std::uint64_t bytesDtoH() const { return bytesDtoH_; }
    sim::Tick busyTicks() const { return busyTicks_; }

  private:
    /**
     * Reserve @p nfull pieces of @p full bytes, then one of @p tail
     * bytes when @p tail is nonzero, @p gap apart, starting no earlier
     * than @p now. @return @p gap past the last completion, or @p now
     * when there is no piece.
     */
    sim::Tick reserve(sim::Tick now, std::uint64_t full,
                      std::uint64_t nfull, std::uint64_t tail,
                      sim::Tick gap, Dir dir);

    const TimingConfig &cfg_;
    sim::Tracer *tracer_ = nullptr;
    sim::Tick busyUntil_ = 0;
    sim::Tick busyTicks_ = 0;
    std::uint64_t bytesHtoD_ = 0;
    std::uint64_t bytesDtoH_ = 0;
};

} // namespace deepum::gpu
