#include "uvm/fault_shards.hh"

#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::uvm {

FaultShardPool::FaultShardPool(unsigned nshards)
    : shardOrdered_(kMaxShards)
{
    setShards(nshards);
}

void
FaultShardPool::setShards(unsigned n)
{
    if (n == 0)
        n = 1;
    if (n > kMaxShards)
        n = kMaxShards;
    nshards_ = n;
    workers_.resize(n);
}

// --------------------------------------------------------------------
// Preprocess: probe + dedupe, two fork/join passes
// --------------------------------------------------------------------

// Pass A: each shard probes a contiguous chunk of the batch, writing
// its per-entry slot of entryIdx_ (disjoint writes) and a private
// page sum. BlockStore::find is a pure array read and safe to call
// concurrently.
void
FaultShardPool::probeJob(void *ctx, unsigned shard, unsigned nshards)
{
    auto *c = static_cast<PreprocessCtx *>(ctx);
    FaultShardPool &p = *c->pool;
    const auto &entries = *c->entries;
    const std::size_t n = entries.size();
    const std::size_t lo = n * shard / nshards;
    const std::size_t hi = n * (shard + 1) / nshards;
    std::uint64_t pages = 0;
    for (std::size_t pos = lo; pos < hi; ++pos) {
        pages += entries[pos].pages;
        p.entryIdx_[pos] = c->store->find(entries[pos].block);
    }
    p.shardPages_[shard] = pages;
}

// Pass B: each shard scans the whole batch but stamps only the
// slab-index class it owns (idx % nshards == shard), so the shared
// epoch array sees disjoint writes; survivors go to the shard's
// (position, block) list in ascending position order.
void
FaultShardPool::dedupeJob(void *ctx, unsigned shard, unsigned nshards)
{
    auto *c = static_cast<PreprocessCtx *>(ctx);
    FaultShardPool &p = *c->pool;
    const auto &entries = *c->entries;
    auto &seen = *c->seen;
    auto &mine = p.shardOrdered_[shard];
    const std::size_t n = entries.size();
    for (std::size_t pos = 0; pos < n; ++pos) {
        BlockIndex i = p.entryIdx_[pos];
        if (i % nshards != shard)
            continue;
        if (seen[i] != c->epoch) {
            seen[i] = c->epoch;
            support::pushAmortized(
                mine, PosBlock{static_cast<std::uint32_t>(pos),
                               entries[pos].block});
        }
    }
}

void
FaultShardPool::preprocess(const std::vector<gpu::FaultEntry> &entries,
                           const BlockStore &store,
                           std::vector<std::uint64_t> &seen,
                           std::uint64_t epoch,
                           std::vector<mem::BlockId> &ordered,
                           std::uint64_t &pages)
{
    ordered.clear();
    pages = 0;
    const std::size_t n = entries.size();

    if (nshards_ == 1 || n < kMinParallelEntries) {
        // Serial reference loop: also the semantics the sharded path
        // must reproduce byte-for-byte.
        for (const auto &e : entries) {
            pages += e.pages;
            BlockIndex i = store.find(e.block);
            if (i == kNoBlockIndex)
                sim::panic("fault on unregistered block %llu",
                           static_cast<unsigned long long>(e.block));
            if (seen[i] != epoch) {
                seen[i] = epoch;
                ordered.push_back(e.block);
            }
        }
        return;
    }

    if (entryIdx_.size() < n)
        entryIdx_.resize(n);

    PreprocessCtx ctx{this, &entries, &store, &seen, epoch};
    run(&probeJob, &ctx);

    // Unknown blocks panic in entry order, matching the serial loop.
    for (std::size_t pos = 0; pos < n; ++pos) {
        if (entryIdx_[pos] == kNoBlockIndex)
            sim::panic("fault on unregistered block %llu",
                       static_cast<unsigned long long>(
                           entries[pos].block));
    }

    run(&dedupeJob, &ctx);

    for (unsigned s = 0; s < nshards_; ++s)
        pages += shardPages_[s];

    // K-way merge by original entry position: each shard's list is
    // already ascending, so repeatedly taking the smallest head
    // reproduces the serial first-fault order exactly.
    std::size_t cursor[kMaxShards] = {};
    for (;;) {
        unsigned best = kMaxShards;
        std::uint32_t bestPos = 0;
        for (unsigned s = 0; s < nshards_; ++s) {
            if (cursor[s] >= shardOrdered_[s].size())
                continue;
            std::uint32_t p = shardOrdered_[s][cursor[s]].pos;
            if (best == kMaxShards || p < bestPos) {
                best = s;
                bestPos = p;
            }
        }
        if (best == kMaxShards)
            break;
        support::pushAmortized(ordered,
                               shardOrdered_[best][cursor[best]].block);
        ++cursor[best];
    }
    for (unsigned s = 0; s < nshards_; ++s)
        shardOrdered_[s].clear();
}

// --------------------------------------------------------------------
// Validation
// --------------------------------------------------------------------

void
FaultShardPool::checkInvariants(sim::CheckContext &ctx) const
{
    ctx.require(nshards_ >= 1 && nshards_ <= kMaxShards,
                "shard count %u out of range", nshards_);
    for (unsigned s = 0; s < kMaxShards; ++s) {
        ctx.require(shardOrdered_[s].empty(),
                    "shard %u ordered list not drained (%zu left)", s,
                    shardOrdered_[s].size());
    }
}

void
FaultShardPool::dumpState(std::ostream &os) const
{
    os << "FaultShardPool{shards=" << nshards_ << ", entryIdxCap="
       << entryIdx_.size();
    for (unsigned s = 0; s < nshards_; ++s)
        os << ", s" << s << "=[ordered:" << shardOrdered_[s].size() << "]";
    os << "}\n";
}

} // namespace deepum::uvm
