#include "core/block_correlation_table.hh"

#include <algorithm>
#include <cstring>
#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::core {

namespace {

/** SplitMix64-style avalanche so adjacent blocks spread over sets. */
std::uint64_t
mix(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

BlockCorrelationTable::BlockCorrelationTable(const BlockTableConfig &cfg)
    : cfg_(cfg)
{
    DEEPUM_ASSERT(cfg_.numRows > 0 && cfg_.assoc > 0 && cfg_.numSuccs > 0,
                  "degenerate block-table geometry");
    const std::size_t words =
        (std::size_t(cfg_.numRows) * cfg_.assoc + 63) / 64;
    occupied_.assign(words, 0);
    rankBase_.assign(words, 0);
}

std::size_t
BlockCorrelationTable::setIndex(mem::BlockId b) const
{
    // The same value as mix(b) % numRows; the default row count is a
    // power of two, where a mask spares the probe a 64-bit division.
    const std::uint64_t h = mix(b);
    const std::uint64_t rows = cfg_.numRows;
    return static_cast<std::size_t>((rows & (rows - 1)) == 0 ? h & (rows - 1)
                                                             : h % rows);
}

BlockCorrelationTable::EntryIndex
BlockCorrelationTable::find(mem::BlockId b, std::size_t &way) const
{
    way = setIndex(b) * cfg_.assoc;
    EntryIndex i = rankOf(way);
    for (std::uint32_t k = 0; k < cfg_.assoc; ++k, ++way) {
        if (!isOccupied(way))
            continue;
        if (entries_[i].tag == b)
            return i;
        ++i;
    }
    return kNoEntry;
}

void
BlockCorrelationTable::growEntries(std::size_t way, EntryIndex i)
{
    support::insertAmortized(entries_, i, 1, Entry{});
    support::insertAmortized(succs_, std::size_t(i) * cfg_.numSuccs,
                             cfg_.numSuccs, uvm::kNoBlock);
    occupied_[way >> 6] |= wayBit(way);
    for (std::size_t w = (way >> 6) + 1; w < rankBase_.size(); ++w)
        ++rankBase_[w];
}

void
BlockCorrelationTable::record(mem::BlockId prev, mem::BlockId next)
{
    // One pass over prev's set: its entry, else the way to fill — the
    // first empty way, otherwise the strict-< LRU way in way order.
    std::size_t way = setIndex(prev) * cfg_.assoc;
    EntryIndex i = rankOf(way);
    EntryIndex hit = kNoEntry;
    EntryIndex lru = kNoEntry;
    std::size_t empty_way = 0;
    EntryIndex empty_at = kNoEntry;
    for (std::uint32_t k = 0; k < cfg_.assoc; ++k, ++way) {
        if (!isOccupied(way)) {
            if (empty_at == kNoEntry) {
                empty_way = way;
                empty_at = i;
            }
            continue;
        }
        if (entries_[i].tag == prev) {
            hit = i;
            break;
        }
        if (lru == kNoEntry || entries_[i].lastUse < entries_[lru].lastUse)
            lru = i;
        ++i;
    }
    if (hit == kNoEntry) {
        if (empty_at != kNoEntry) {
            growEntries(empty_way, empty_at);
            hit = empty_at;
        } else {
            ++replacements_;
            hit = lru;
        }
        entries_[hit].tag = prev;
        entries_[hit].succCount = 0;
    }
    Entry &e = entries_[hit];
    e.lastUse = ++useClock_;
    e.lastEpoch = epoch_;

    mem::BlockId *s = succsOf(hit);
    for (std::uint32_t j = 0; j < e.succCount; ++j) {
        if (s[j] != next)
            continue;
        // Refresh to MRU position: slide [0, j) up one, put next at 0.
        std::memmove(s + 1, s, j * sizeof(mem::BlockId));
        s[0] = next;
        return;
    }
    // Insert at MRU, dropping the LRU slot when at capacity.
    std::uint32_t keep = std::min(e.succCount, cfg_.numSuccs - 1);
    std::memmove(s + 1, s, keep * sizeof(mem::BlockId));
    s[0] = next;
    e.succCount = keep + 1;
}

void
BlockCorrelationTable::captureStartEnd(mem::BlockId start,
                                       mem::BlockId end,
                                       std::uint32_t len)
{
    ++epoch_;
    constexpr std::uint32_t kMaxStaleRejects = 4;
    if (2 * len >= bestLen_) {
        start_ = start;
        end_ = end;
        if (len > bestLen_)
            bestLen_ = len;
        staleRejects_ = 0;
        return;
    }
    if (++staleRejects_ > kMaxStaleRejects) {
        // The pattern really did shrink; adopt it.
        start_ = start;
        end_ = end;
        bestLen_ = len;
        staleRejects_ = 0;
    }
}

SuccView
BlockCorrelationTable::successors(mem::BlockId b) const
{
    EntryIndex i = find(b);
    if (i == kNoEntry)
        return SuccView{};
    return SuccView{succsOf(i), entries_[i].succCount};
}

SuccView
BlockCorrelationTable::visit(mem::BlockId b, EntryIndex hint)
{
    // Tags are unique within the table, so an entry tagged b is b's.
    EntryIndex i = hint < entries_.size() && entries_[hint].tag == b
                       ? hint
                       : find(b);
    if (i == kNoEntry)
        return SuccView{};
    refreshAt(i);
    return SuccView{succsOf(i), entries_[i].succCount};
}

void
BlockCorrelationTable::freshEntries(std::uint32_t window,
                                    std::vector<EntryIndex> &out) const
{
    out.clear();
    for (EntryIndex i = 0; i < entries_.size(); ++i) {
        if (entries_[i].lastEpoch + window >= epoch_)
            support::pushAmortized(out, i);
    }
}

std::vector<mem::BlockId>
BlockCorrelationTable::freshTags(std::uint32_t window) const
{
    std::vector<EntryIndex> fresh;
    freshEntries(window, fresh);
    std::vector<mem::BlockId> tags;
    for (EntryIndex i : fresh)
        tags.push_back(tagAt(i));
    return tags;
}

void
BlockCorrelationTable::refresh(mem::BlockId b)
{
    EntryIndex i = find(b);
    if (i != kNoEntry)
        refreshAt(i);
}

void
BlockCorrelationTable::refreshAt(EntryIndex i)
{
    entries_[i].lastUse = ++useClock_;
    entries_[i].lastEpoch = epoch_;
}

void
BlockCorrelationTable::erase(mem::BlockId b)
{
    std::size_t way = 0;
    EntryIndex i = find(b, way);
    if (i == kNoEntry)
        return;
    entries_.erase(entries_.begin() + i);
    auto s = succs_.begin() +
             static_cast<std::ptrdiff_t>(std::size_t(i) * cfg_.numSuccs);
    succs_.erase(s, s + cfg_.numSuccs);
    occupied_[way >> 6] &= ~wayBit(way);
    for (std::size_t w = (way >> 6) + 1; w < rankBase_.size(); ++w)
        --rankBase_[w];
}

void
BlockCorrelationTable::eraseRange(mem::BlockId first, mem::BlockId end)
{
    auto dead = [first, end](mem::BlockId b) {
        return b >= first && b < end;
    };
    // One compacting pass in way order: the entry of the k-th
    // occupied way is entries_[k], and kept entries slide down to
    // index `kept` with their successor windows.
    EntryIndex from = 0;
    EntryIndex kept = 0;
    forEachOccupied([&](std::size_t way) {
        Entry e = entries_[from];
        const mem::BlockId *src = succsOf(from++);
        if (dead(e.tag)) {
            occupied_[way >> 6] &= ~wayBit(way);
            return;
        }
        // Compact the successor window, preserving MRU order.
        mem::BlockId *dst = succsOf(kept);
        std::uint32_t n = 0;
        for (std::uint32_t j = 0; j < e.succCount; ++j) {
            if (!dead(src[j]))
                dst[n++] = src[j];
        }
        e.succCount = n;
        entries_[kept++] = e;
    });
    entries_.erase(entries_.begin() + kept, entries_.end());
    succs_.erase(succs_.begin() + static_cast<std::ptrdiff_t>(
                                      std::size_t(kept) * cfg_.numSuccs),
                 succs_.end());
    // Recount the rank bases from the compacted bitmap.
    EntryIndex live = 0;
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
        rankBase_[w] = live;
        live += countBits(occupied_[w]);
    }
    if (start_ != uvm::kNoBlock && dead(start_))
        start_ = uvm::kNoBlock;
    if (end_ != uvm::kNoBlock && dead(end_))
        end_ = uvm::kNoBlock;
}

void
BlockCorrelationTable::checkInvariants(sim::CheckContext &ctx) const
{
    const std::size_t ways = std::size_t(cfg_.numRows) * cfg_.assoc;
    ctx.require(occupied_.size() == (ways + 63) / 64 &&
                    rankBase_.size() == occupied_.size(),
                "%zu occupancy words and %zu rank bases for %zu ways",
                occupied_.size(), rankBase_.size(), ways);
    if (ways % 64 != 0)
        ctx.require(occupied_.back() >> (ways % 64) == 0,
                    "occupancy bit set past way count %zu", ways);
    std::size_t live = 0;
    for (std::size_t w = 0; w < occupied_.size(); ++w) {
        ctx.require(rankBase_[w] == live,
                    "word %zu rank base %u, bitmap counts %zu below it",
                    w, rankBase_[w], live);
        live += countBits(occupied_[w]);
    }
    ctx.require(entries_.size() == live &&
                    succs_.size() == live * cfg_.numSuccs,
                "%zu entries and %zu successor slots for %zu live ways "
                "of %u successors",
                entries_.size(), succs_.size(), live, cfg_.numSuccs);
    if (entries_.size() != live || succs_.size() != live * cfg_.numSuccs)
        return; // the per-entry walk below would read out of bounds

    EntryIndex i = 0;
    EntryIndex set_first = 0; // first entry of the current way's set
    std::size_t cur_set = ~std::size_t(0);
    forEachOccupied([&](std::size_t way) {
        const Entry &e = entries_[i];
        const std::size_t set = way / cfg_.assoc;
        if (set != cur_set) {
            cur_set = set;
            set_first = i;
        }
        ctx.require(e.tag != uvm::kNoBlock && setIndex(e.tag) == set,
                    "way %zu tag %llu hashes to set %zu",
                    way, static_cast<unsigned long long>(e.tag),
                    e.tag != uvm::kNoBlock ? setIndex(e.tag) : set);
        for (EntryIndex j = set_first; j < i; ++j)
            ctx.require(entries_[j].tag != e.tag,
                        "tag %llu duplicated within set %zu",
                        static_cast<unsigned long long>(e.tag), set);
        ctx.require(e.succCount <= cfg_.numSuccs,
                    "way %zu holds %u successors, max %u", way,
                    e.succCount, cfg_.numSuccs);
        ctx.require(e.lastUse <= useClock_,
                    "way %zu lastUse %llu beyond clock %llu", way,
                    static_cast<unsigned long long>(e.lastUse),
                    static_cast<unsigned long long>(useClock_));
        ctx.require(e.lastEpoch <= epoch_,
                    "way %zu lastEpoch %u beyond epoch %u", way,
                    e.lastEpoch, epoch_);
        const mem::BlockId *s = succsOf(i);
        for (std::uint32_t a = 0; a < e.succCount; ++a) {
            for (std::uint32_t b = a + 1; b < e.succCount; ++b)
                ctx.require(s[a] != s[b],
                            "way %zu successor %llu duplicated", way,
                            static_cast<unsigned long long>(s[a]));
        }
        ++i;
    });
}

void
BlockCorrelationTable::dumpState(std::ostream &os) const
{
    os << "BlockCorrelationTable{rows=" << cfg_.numRows
       << " assoc=" << cfg_.assoc << " succs=" << cfg_.numSuccs
       << " live=" << entryCount() << " start=" << start_
       << " end=" << end_ << " epoch=" << epoch_
       << " useClock=" << useClock_ << "}\n  rank bases:";
    for (EntryIndex r : rankBase_)
        os << " " << r;
    os << "\n";
    // Pair the k-th occupied way with entries_[k]; a drifted table may
    // have more of either, so each side stops at its own count.
    EntryIndex i = 0;
    forEachOccupied([&](std::size_t way) {
        os << "  way " << way << ": ";
        if (i >= entries_.size()) {
            os << "no entry\n";
            return;
        }
        const Entry &e = entries_[i];
        os << "tag=" << e.tag << " lastUse=" << e.lastUse
           << " lastEpoch=" << e.lastEpoch << " succs=[";
        const std::size_t base = std::size_t(i) * cfg_.numSuccs;
        for (std::uint32_t j = 0;
             j < e.succCount && base + j < succs_.size(); ++j)
            os << (j != 0 ? " " : "") << succs_[base + j];
        os << "]\n";
        ++i;
    });
    for (; i < entries_.size(); ++i)
        os << "  entry " << i << " (no way): tag=" << entries_[i].tag
           << "\n";
}

std::uint64_t
BlockCorrelationTable::sizeBytes() const
{
    // tag + lastUse + numSuccs successor slots per way, plus the
    // start/end pointers: the paper's full-geometry accounting.
    std::uint64_t per_entry =
        sizeof(mem::BlockId) + sizeof(std::uint64_t) +
        std::uint64_t(cfg_.numSuccs) * sizeof(mem::BlockId);
    return std::uint64_t(cfg_.numRows) * cfg_.assoc * per_entry +
           2 * sizeof(mem::BlockId);
}

BlockCorrelationTable &
BlockCorrelationTableSet::getOrCreate(ExecId id)
{
    DEEPUM_ASSERT(id != kNoExecId, "table lookup for kNoExecId");
    if (id >= tables_.size())
        tables_.resize(std::size_t(id) + 1);
    if (tables_[id] == nullptr) {
        tables_[id] = std::make_unique<BlockCorrelationTable>(cfg_);
        ++count_;
    }
    return *tables_[id];
}

std::uint64_t
BlockCorrelationTableSet::totalSizeBytes() const
{
    std::uint64_t bytes = 0;
    for (const auto &t : tables_)
        if (t != nullptr)
            bytes += t->sizeBytes();
    return bytes;
}

void
BlockCorrelationTableSet::eraseBlocksInRange(mem::BlockId first,
                                             mem::BlockId end)
{
    for (auto &t : tables_)
        if (t != nullptr)
            t->eraseRange(first, end);
}

void
BlockCorrelationTableSet::checkInvariants(sim::CheckContext &ctx) const
{
    std::size_t live = 0;
    for (const auto &t : tables_) {
        if (t == nullptr)
            continue;
        ++live;
        t->checkInvariants(ctx);
    }
    ctx.require(live == count_,
                "table count %zu disagrees with %zu live slots",
                count_, live);
}

void
BlockCorrelationTableSet::dumpState(std::ostream &os) const
{
    os << "BlockCorrelationTableSet{tables=" << count_ << "}\n";
    for (ExecId id = 0; id < tables_.size(); ++id) {
        if (tables_[id] == nullptr)
            continue;
        os << " exec " << id << ": ";
        tables_[id]->dumpState(os);
    }
}

} // namespace deepum::core
