#include "gpu/pcie_link.hh"

#include "sim/trace.hh"

namespace deepum::gpu {

sim::Tick
PcieLink::reserve(sim::Tick now, std::uint64_t full, std::uint64_t nfull,
                  std::uint64_t tail, sim::Tick gap, Dir dir)
{
    std::uint64_t pieces = nfull + (tail != 0 ? 1 : 0);
    if (pieces == 0)
        return now;
    // The link is free again when a piece completes, so every piece
    // after the first starts exactly `gap` after its predecessor.
    sim::Tick start = now > busyUntil_ ? now : busyUntil_;
    sim::Tick full_dur = cfg_.pcieLatency + cfg_.copyTicks(full);
    sim::Tick tail_dur =
        tail != 0 ? cfg_.pcieLatency + cfg_.copyTicks(tail) : 0;
    sim::Tick busy = nfull * full_dur + tail_dur;
    busyUntil_ = start + busy + (pieces - 1) * gap;
    busyTicks_ += busy;
    (dir == Dir::HostToDev ? bytesHtoD_ : bytesDtoH_) += nfull * full + tail;
    if (tracer_ != nullptr) {
        for (std::uint64_t k = 0; k < pieces; ++k, start += gap) {
            bool last = k == nfull;
            sim::Tick end = start + (last ? tail_dur : full_dur);
            tracer_->duration(
                sim::Track::Pcie, "xfer", start, end,
                {sim::Tracer::arg("dir", dir == Dir::HostToDev ? "HtoD"
                                                               : "DtoH"),
                 sim::Tracer::arg("bytes", last ? tail : full)});
            start = end;
        }
    }
    return busyUntil_ + gap;
}

} // namespace deepum::gpu
