/**
 * @file
 * DeepUM's eviction policy (paper Section 5.1).
 *
 * Victims must satisfy both conditions: least recently migrated, and
 * not expected to be accessed by the current kernel or the next N
 * kernels predicted to execute. The second condition is the
 * prefetcher's protected set. When every unpinned resident block is
 * protected the policy falls back to plain least-recently-migrated so
 * demand faults can always make progress.
 *
 * The victim walk is resumable. The policy remembers the protected
 * prefix of the LRU it has already walked, and the next call starts
 * after it while that prefix is intact:
 *  - the LRU grows only at its tail, so no block ever joins the
 *    prefix;
 *  - protection stamps only rise, and a range free zeroes a stamp only
 *    after the driver unlinked the freed block from the LRU;
 *  - so every block still in the prefix stays protected while its
 *    last block is still registered, resident and not re-migrated
 *    (same migrateSeq), and the prefix's smallest stamp is still above
 *    the window's retired count;
 *  - unlinking any other prefix block does not change the answer.
 * A pinned block that is not protected ends the cached prefix (the
 * walk goes on past it), so an unpin never has to be observed. When
 * the walk finds nothing the prefix ends at the LRU's tail, and a
 * repeated call with nothing changed answers kNoBlock at once.
 * DEEPUM_VALIDATE builds re-run the full walk on every call and
 * require the same victim. The demand fallback walks from the head.
 */

#pragma once

#include <cstdint>
#include <limits>

#include "uvm/block_info.hh"
#include "uvm/eviction_policy.hh"

namespace deepum::uvm {
class BlockStore;
}

namespace deepum::core {

class Prefetcher;
class PredictionWindow;

/** LRU-migrated eviction that skips predicted-use blocks. */
class DeepUmPolicy : public uvm::EvictionPolicy
{
  public:
    explicit DeepUmPolicy(const Prefetcher &prefetcher)
        : prefetcher_(prefetcher)
    {
    }

    DEEPUM_NOALLOC
    mem::BlockId pickVictim(const uvm::Driver &drv, bool demand) override;
    const char *name() const override { return "deepum"; }

  private:
    /** The oldest unpinned, unprotected block, resuming after the
     * cached prefix while it is intact; kNoBlock if none. */
    DEEPUM_NOALLOC mem::BlockId
    resumeWalk(const uvm::BlockStore &st, const PredictionWindow &win);

    const Prefetcher &prefetcher_;

    // The cached protected prefix of the LRU: its last block's slot
    // (kNoBlockIndex when empty) and migrateSeq, and its smallest
    // protection stamp.
    uvm::BlockIndex last_ = uvm::kNoBlockIndex;
    std::uint64_t lastSeq_ = 0;
    std::uint64_t minStamp_ = std::numeric_limits<std::uint64_t>::max();
};

} // namespace deepum::core
