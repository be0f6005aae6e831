#include "mem/va_space.hh"

#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::mem {

VaSpace::VaSpace(std::uint64_t capacity_bytes)
    : capacity_(alignUp(capacity_bytes, kPageSize))
{
    free_.emplace(kUmBase, capacity_);
}

VAddr
VaSpace::allocate(std::uint64_t bytes)
{
    if (bytes == 0)
        return 0;
    // Page-round the size; align the grant to a UM block boundary so
    // BlockId arithmetic never straddles two allocations.
    std::uint64_t size = alignUp(bytes, kPageSize);

    for (auto it = free_.begin(); it != free_.end(); ++it) {
        VAddr cand = alignUp(it->first, kBlockBytes);
        std::uint64_t head_pad = cand - it->first;
        if (it->second < head_pad + size)
            continue;

        VAddr range_base = it->first;
        std::uint64_t range_size = it->second;
        free_.erase(it);
        if (head_pad > 0)
            free_.emplace(range_base, head_pad);
        std::uint64_t tail = range_size - head_pad - size;
        if (tail > 0)
            free_.emplace(cand + size, tail);

        live_.emplace(cand, size);
        usedBytes_ += size;
        if (usedBytes_ > peakBytes_)
            peakBytes_ = usedBytes_;
        return cand;
    }
    return 0;
}

void
VaSpace::release(VAddr va)
{
    auto it = live_.find(va);
    if (it == live_.end())
        sim::panic("VaSpace::release of unknown va 0x%llx",
                   static_cast<unsigned long long>(va));
    std::uint64_t size = it->second;
    live_.erase(it);
    usedBytes_ -= size;

    // Insert and coalesce with neighbours.
    auto [fit, ok] = free_.emplace(va, size);
    DEEPUM_ASSERT(ok, "double free in VaSpace");

    // Merge with successor.
    auto next = std::next(fit);
    if (next != free_.end() && fit->first + fit->second == next->first) {
        fit->second += next->second;
        free_.erase(next);
    }
    // Merge with predecessor.
    if (fit != free_.begin()) {
        auto prev = std::prev(fit);
        if (prev->first + prev->second == fit->first) {
            prev->second += fit->second;
            free_.erase(fit);
        }
    }
}

std::uint64_t
VaSpace::sizeOf(VAddr va) const
{
    auto it = live_.find(va);
    return it == live_.end() ? 0 : it->second;
}

void
VaSpace::checkInvariants(sim::CheckContext &ctx) const
{
    // Merge-walk live_ and free_ in address order: together they
    // must tile [kUmBase, kUmBase + capacity_) exactly.
    auto li = live_.begin();
    auto fi = free_.begin();
    VAddr cursor = kUmBase;
    std::uint64_t live_sum = 0;
    VAddr prev_free_end = 0;
    bool have_prev_free = false;

    while (li != live_.end() || fi != free_.end()) {
        bool take_live =
            fi == free_.end() ||
            (li != live_.end() && li->first < fi->first);
        VAddr rb = take_live ? li->first : fi->first;
        std::uint64_t rs = take_live ? li->second : fi->second;

        ctx.require(rb == cursor,
                    "%s range at 0x%llx does not abut previous end "
                    "0x%llx (gap or overlap)",
                    take_live ? "live" : "free",
                    static_cast<unsigned long long>(rb),
                    static_cast<unsigned long long>(cursor));
        ctx.require(rs > 0, "zero-sized %s range at 0x%llx",
                    take_live ? "live" : "free",
                    static_cast<unsigned long long>(rb));
        if (take_live) {
            ctx.require(rb % kBlockBytes == 0,
                        "live range 0x%llx not block-aligned",
                        static_cast<unsigned long long>(rb));
            ctx.require(rs % kPageSize == 0,
                        "live range 0x%llx size %llu not page-rounded",
                        static_cast<unsigned long long>(rb),
                        static_cast<unsigned long long>(rs));
            live_sum += rs;
            ++li;
        } else {
            ctx.require(!have_prev_free || prev_free_end != rb,
                        "uncoalesced free neighbours meet at 0x%llx",
                        static_cast<unsigned long long>(rb));
            prev_free_end = rb + rs;
            have_prev_free = true;
            ++fi;
        }
        cursor = rb + rs;
    }
    ctx.require(cursor == kUmBase + capacity_,
                "ranges end at 0x%llx, heap ends at 0x%llx",
                static_cast<unsigned long long>(cursor),
                static_cast<unsigned long long>(kUmBase + capacity_));
    ctx.require(live_sum == usedBytes_,
                "usedBytes %llu != sum of live ranges %llu",
                static_cast<unsigned long long>(usedBytes_),
                static_cast<unsigned long long>(live_sum));
    ctx.require(peakBytes_ >= usedBytes_,
                "peakBytes %llu below usedBytes %llu",
                static_cast<unsigned long long>(peakBytes_),
                static_cast<unsigned long long>(usedBytes_));
}

void
VaSpace::dumpState(std::ostream &os) const
{
    os << "VaSpace{base=0x" << std::hex << kUmBase << std::dec
       << " capacity=" << capacity_ << " used=" << usedBytes_
       << " peak=" << peakBytes_ << " live=" << live_.size()
       << " freeRanges=" << free_.size() << "}\n" << std::hex;
    for (const auto &[va, size] : live_)
        os << "  live 0x" << va << " +0x" << size << "\n";
    for (const auto &[va, size] : free_)
        os << "  free 0x" << va << " +0x" << size << "\n";
    os << std::dec;
}

bool
VaSpace::contains(VAddr va) const
{
    auto it = live_.upper_bound(va);
    if (it == live_.begin())
        return false;
    --it;
    return va < it->first + it->second;
}

} // namespace deepum::mem
