#include "core/deepum_policy.hh"

#include <algorithm>
#include <limits>

#include "core/prefetcher.hh"
#include "uvm/driver.hh"

namespace deepum::core {

namespace {

/** The oldest unpinned, unprotected block, walking from the head. */
[[maybe_unused]] mem::BlockId
fullWalk(const uvm::BlockStore &st, const PredictionWindow &win)
{
    for (uvm::BlockIndex i = st.lruHead(); i != uvm::kNoBlockIndex;
         i = st.at(i).lruNext) {
        if (!st.at(i).pinned && !win.isProtected(i))
            return st.idAt(i);
    }
    return uvm::kNoBlock;
}

} // namespace

mem::BlockId
DeepUmPolicy::resumeWalk(const uvm::BlockStore &st,
                         const PredictionWindow &win)
{
    uvm::BlockIndex i = st.lruHead();
    if (last_ != uvm::kNoBlockIndex) {
        const uvm::BlockInfo &bi = st.at(last_);
        if (st.find(st.idAt(last_)) == last_ &&
            bi.loc == uvm::Loc::Device && bi.migrateSeq == lastSeq_ &&
            minStamp_ > win.retired()) {
            i = bi.lruNext;
        } else {
            last_ = uvm::kNoBlockIndex;
            minStamp_ = std::numeric_limits<std::uint64_t>::max();
        }
    }
    bool extend = true; // no unprotected pinned block met yet
    for (; i != uvm::kNoBlockIndex; i = st.at(i).lruNext) {
        const uvm::BlockInfo &bi = st.at(i);
        std::uint64_t stamp = win.stamp(i);
        if (stamp > win.retired()) {
            if (extend) {
                last_ = i;
                lastSeq_ = bi.migrateSeq;
                minStamp_ = std::min(minStamp_, stamp);
            }
            continue;
        }
        if (!bi.pinned)
            return st.idAt(i);
        extend = false;
    }
    return uvm::kNoBlock;
}

mem::BlockId
DeepUmPolicy::pickVictim(const uvm::Driver &drv, bool demand)
{
    const uvm::BlockStore &st = drv.store();
    const PredictionWindow &win = prefetcher_.window();
    mem::BlockId victim = resumeWalk(st, win);
#ifdef DEEPUM_VALIDATE
    DEEPUM_ASSERT(victim == fullWalk(st, win),
                  "the resumed victim walk disagrees with a walk from "
                  "the LRU head");
#endif
    // Everything unpinned is protected. A demand fault must make
    // progress, so fall back to plain LRU; a prefetch or
    // pre-eviction would be evicting predicted-useful data to make
    // room for less certain data — better to drop it.
    if (victim != uvm::kNoBlock || !demand)
        return victim;
    for (uvm::BlockIndex i = st.lruHead(); i != uvm::kNoBlockIndex;
         i = st.at(i).lruNext) {
        if (!st.at(i).pinned)
            return st.idAt(i);
    }
    return uvm::kNoBlock;
}

} // namespace deepum::core
