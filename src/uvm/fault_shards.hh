/**
 * @file
 * Sharded fault-batch servicing with a deterministic merge.
 *
 * The real UVM driver services GPU page faults on several CPU
 * threads. FaultShardPool brings that inside the simulator without
 * giving up the byte-identical-stats contract: each fault batch is
 * partitioned by slab index (`BlockIndex % nshards`), N host threads
 * (a sim::ShardWorkers team) concurrently do the per-block work that
 * is read-mostly or shard-local — BlockStore probes, dedupe epoch
 * stamping, correlation-table record into per-shard set regions — and
 * the coordinator then merges the per-shard results in canonical
 * first-fault order. Migration scheduling, stats, the provenance
 * ledger, and all event-queue interaction stay on the coordinator
 * thread.
 *
 * Determinism argument (DESIGN.md section 3.12): every shard owns a
 * disjoint class of state (slab-index classes for dedupe stamps,
 * correlation *sets* for records), applies its share in the canonical
 * sequential order, and the coordinator merge recovers exactly the
 * order the serial loop would have produced. One shard degenerates to
 * the serial loop itself, so the stats are byte-identical at any
 * `--service-threads` value and CI pins them against
 * ci/golden_stats.json.
 *
 * The pool is also the stepping stone to multi-GPU: per-rank drivers
 * are shards writ large, with the same disjoint-ownership discipline.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "gpu/fault_buffer.hh"
#include "mem/addr.hh"
#include "sim/shard_workers.hh"
#include "support/annotations.hh"
#include "uvm/block_info.hh"
#include "uvm/block_store.hh"

namespace deepum::sim {
class CheckContext;
} // namespace deepum::sim

namespace deepum::uvm {

/**
 * Worker team for fault-batch servicing.
 *
 * Owned by the Driver; the core-side sharded path (correlation
 * recordBatch) borrows it through Driver::shardPool() so one team
 * services the whole fault path.
 */
class FaultShardPool
{
  public:
    /** Upper bound on shards (per-shard lists are sized for this). */
    static constexpr unsigned kMaxShards = 16;

    /**
     * Batches smaller than this are serviced serially even with
     * shards configured: dispatch costs more than it saves.
     */
    static constexpr std::size_t kMinParallelEntries = 64;

    explicit FaultShardPool(unsigned nshards = 1);

    /** Set the shard count (clamped to [1, kMaxShards]). */
    void setShards(unsigned n);

    /** Configured shard count (1 = fully serial, no threads). */
    unsigned shards() const { return nshards_; }

    /** Run one fork/join job on the team (see sim::ShardWorkers). */
    DEEPUM_NOALLOC void
    run(sim::ShardWorkers::JobFn fn, void *ctx)
    {
        workers_.run(fn, ctx);
    }

    /**
     * Dedupe a drained fault batch and group it by UM block,
     * preserving first-fault order — the sharded equivalent of the
     * serial loop in Driver::handleFaults (paper Figure 3 step 2).
     *
     * @param entries the drained batch, in arrival order
     * @param store   slab probe target (read-only here)
     * @param seen    epoch-stamp array keyed by slab index
     * @param epoch   current dedupe epoch
     * @param ordered out: unique blocks in first-fault order
     * @param pages   out: total pages across all entries
     *
     * Panics on the first entry whose block is not registered, in
     * entry order, exactly like the serial loop. Results are
     * byte-identical to the serial loop at any shard count: probes
     * write disjoint per-entry slots, each shard stamps a disjoint
     * slab-index class, and the coordinator k-way-merges the
     * per-shard lists by original entry position.
     */
    void preprocess(const std::vector<gpu::FaultEntry> &entries,
                    const BlockStore &store,
                    std::vector<std::uint64_t> &seen,
                    std::uint64_t epoch,
                    std::vector<mem::BlockId> &ordered,
                    std::uint64_t &pages);

    /** Audit quiescent state: all per-shard lists drained. */
    void checkInvariants(sim::CheckContext &ctx) const;
    void dumpState(std::ostream &os) const;

  private:
    /** A deduped block tagged with its original entry position. */
    struct PosBlock {
        std::uint32_t pos;
        mem::BlockId block;
    };

    struct PreprocessCtx {
        FaultShardPool *pool;
        const std::vector<gpu::FaultEntry> *entries;
        const BlockStore *store;
        std::vector<std::uint64_t> *seen;
        std::uint64_t epoch;
    };

    DEEPUM_NOALLOC static void probeJob(void *ctx, unsigned shard,
                                        unsigned nshards);
    static void dedupeJob(void *ctx, unsigned shard, unsigned nshards);

    sim::ShardWorkers workers_;
    unsigned nshards_ = 1;

    /** Per-entry probe results (pass A writes disjoint slots). */
    std::vector<BlockIndex> entryIdx_;
    /** Per-shard deduped (position, block) lists (pass B). */
    std::vector<std::vector<PosBlock>> shardOrdered_;
    /** Per-shard page sums (order-independent addition). */
    std::uint64_t shardPages_[kMaxShards] = {};
};

} // namespace deepum::uvm
