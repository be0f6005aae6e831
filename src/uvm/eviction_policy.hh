/**
 * @file
 * Victim-selection policies for GPU page eviction.
 *
 * The NVIDIA driver evicts the block least recently *migrated* to the
 * GPU (paper Section 5.1, citing Kim et al.). DeepUM keeps that order
 * but additionally skips blocks predicted to be used by the current
 * and next N kernels; that policy lives in core/ next to the
 * prefetcher that owns the prediction.
 */

#pragma once

#include "mem/addr.hh"
#include "support/annotations.hh"

namespace deepum::uvm {

class Driver;

/** Chooses which resident UM block to evict. */
class EvictionPolicy
{
  public:
    virtual ~EvictionPolicy() = default;

    /**
     * Pick a victim among the driver's resident blocks.
     * Must never return a pinned block. @p demand is true on the
     * fault critical path (a demand fault must always make progress;
     * a prefetch may rather be dropped than evict useful data).
     * @return the victim, or kNoBlock when nothing is evictable.
     *
     * The answer depends only on the driver's state (residency,
     * pins) and the policy's inputs (e.g. DeepUM's protected set). The
     * driver asks once per victim it needs, including once per
     * prefetch that needs room after an earlier one found none, so a
     * repeated call with nothing changed should be cheap (DeepUM's
     * resumable walk answers it in O(1)).
     *
     * Runs per evicted block on the fault critical path, so every
     * implementation is DEEPUM_NOALLOC (annotate overrides too — the
     * attribute does not propagate through the vtable).
     */
    DEEPUM_NOALLOC
    virtual mem::BlockId pickVictim(const Driver &drv, bool demand) = 0;

    /** Short policy name for logs. */
    virtual const char *name() const = 0;
};

/**
 * NVIDIA-driver default: evict the least recently migrated block.
 */
class LruMigratedPolicy : public EvictionPolicy
{
  public:
    DEEPUM_NOALLOC
    mem::BlockId pickVictim(const Driver &drv, bool demand) override;
    const char *name() const override { return "lru-migrated"; }
};

} // namespace deepum::uvm
