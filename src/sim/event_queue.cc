#include "sim/event_queue.hh"

#include <algorithm>
#include <ostream>

#include "sim/logging.hh"
#include "sim/validate.hh"

namespace deepum::sim {

void
EventQueue::pastTick(Tick when) const
{
    panic("scheduling event in the past: tick %llu < now %llu",
          static_cast<unsigned long long>(when),
          static_cast<unsigned long long>(curTick_));
}

void
EventQueue::schedule(Tick when, EventFn fn)
{
    if (when < curTick_)
        pastTick(when);
    heap_.push_back(Entry{when, nextSeq_++, fn});
    std::push_heap(heap_.begin(), heap_.end(), later);
}

bool
EventQueue::step()
{
    if (heap_.empty())
        return false;
    std::pop_heap(heap_.begin(), heap_.end(), later);
    Entry e = heap_.back();
    heap_.pop_back();

#ifdef DEEPUM_VALIDATE
    DEEPUM_ASSERT(e.when >= curTick_,
                  "event queue time travel: next event tick %llu < "
                  "now %llu",
                  static_cast<unsigned long long>(e.when),
                  static_cast<unsigned long long>(curTick_));
#endif
    curTick_ = e.when;
    ++executed_;
    e.fn();
    return true;
}

Tick
EventQueue::run(std::uint64_t limit)
{
    std::uint64_t n = 0;
    while (n < limit && step())
        ++n;
    return curTick_;
}

void
EventQueue::checkInvariants(CheckContext &ctx) const
{
    for (std::size_t i = 0; i < heap_.size(); ++i) {
        const Entry &e = heap_[i];
        ctx.require(e.when >= curTick_,
                    "pending event at tick %llu predates now %llu",
                    static_cast<unsigned long long>(e.when),
                    static_cast<unsigned long long>(curTick_));
        ctx.require(e.seq < nextSeq_,
                    "event seq %llu >= next seq %llu",
                    static_cast<unsigned long long>(e.seq),
                    static_cast<unsigned long long>(nextSeq_));
        if (i > 0) {
            // Min-heap via later(): a parent never fires after its
            // child.
            const Entry &parent = heap_[(i - 1) / 2];
            ctx.require(!later(parent, e),
                        "event heap property broken at index %zu", i);
        }
    }
}

void
EventQueue::dumpState(std::ostream &os) const
{
    os << "EventQueue{now=" << curTick_ << " nextSeq=" << nextSeq_
       << " executed=" << executed_ << " pending=" << heap_.size()
       << "}\n";
    if (!heap_.empty()) {
        os << "  heap:";
        for (const Entry &e : heap_)
            os << " (t=" << e.when << ",s=" << e.seq << ")";
        os << "\n";
    }
}

void
EventQueue::clear()
{
    heap_.clear();
    curTick_ = 0;
    nextSeq_ = 0;
    executed_ = 0;
}

} // namespace deepum::sim
