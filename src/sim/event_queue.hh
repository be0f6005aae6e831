/**
 * @file
 * Deterministic discrete-event queue.
 *
 * Events are EventFn callables, ordered by (tick, sequence number);
 * the sequence number makes simultaneous events run in scheduling
 * order, so identical inputs always produce identical simulations.
 * This is the spine every simulated component (GPU, driver threads,
 * PCIe link) hangs off.
 *
 * An EventFn is one invoke pointer plus two words of captures, and
 * it accepts only trivially copyable, trivially destructible
 * closures. Every simulated thread is an actor with at most one
 * pending event, and none while the actor runs its next step in
 * place, so what that event needs lives in the actor and the event
 * captures `this` (uvm::Driver keeps its in-flight fault batch and
 * migration). A queue entry is then a trivially copyable 40-byte
 * record: heap moves are plain copies, and dispatch never destroys
 * or frees anything.
 *
 * Internally the queue is a binary min-heap: the benchmark workloads
 * never hold more than two pending events, so a cleverer structure
 * would have nothing to speed up (DESIGN.md "Event-queue core").
 * An actor whose last act in a callback would be to schedule its own
 * next step asks runAheadTo() first and, when no pending event is due
 * by then, runs that step in place; the heap still decides the order.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/types.hh"
#include "support/annotations.hh"

namespace deepum::sim {

class CheckContext;
class Tracer;

/**
 * Callback executed when an event fires: an invoke pointer and up to
 * two words of captures, copied bit for bit. Closures that need more
 * state keep it in their owner and capture `this`.
 */
class EventFn
{
  public:
    /** Bytes of captures a closure may carry. */
    static constexpr std::size_t kCaptureBytes = 2 * sizeof(void *);

    EventFn() = default;

    /** Wrap @p f; only small, trivially copyable closures qualify. */
    template <typename F>
        requires(std::is_invocable_r_v<void, F &> &&
                 std::is_trivially_copyable_v<F> &&
                 std::is_trivially_destructible_v<F> &&
                 sizeof(F) <= kCaptureBytes &&
                 alignof(F) <= alignof(void *))
    EventFn(F f) noexcept // NOLINT: implicit like std::function
        : invoke_([](void *captures) { (*static_cast<F *>(captures))(); })
    {
        ::new (static_cast<void *>(captures_)) F(f);
    }

    /** Invoke the wrapped closure; must not be empty. */
    void operator()() { invoke_(captures_); }

  private:
    void (*invoke_)(void *) = nullptr;
    alignas(void *) unsigned char captures_[kCaptureBytes] = {};
};

/**
 * A min-heap of timed callbacks with a deterministic tie-break.
 *
 * Components schedule closures at absolute or relative ticks; run()
 * drains the queue, advancing the simulated clock monotonically.
 */
class EventQueue
{
  public:
    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** @return the current simulated time. */
    Tick now() const { return curTick_; }

    /**
     * Schedule @p fn at absolute tick @p when.
     * Scheduling in the past aborts with the offending tick.
     */
    void schedule(Tick when, EventFn fn);

    /** Schedule @p fn @p delay ticks from now. */
    void scheduleIn(Tick delay, EventFn fn) { schedule(curTick_ + delay, fn); }

    /** @return true if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** @return number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /**
     * May the caller run its next step at tick @p when in place,
     * rather than schedule it? Yes only when no pending event is due
     * at or before @p when: a step scheduled now would take the next
     * seq, so it would fire after any event already due at @p when,
     * and before every later one. On yes the clock moves to @p when
     * and the step counts as one scheduled and one executed event,
     * exactly as its heap round trip would have.
     *
     * Ask only as the last act of an event callback (or of a call
     * made in that position): the step then runs where the callback
     * returns, which is where the heap would have dispatched it. An
     * actor that steps again loops; it never recurses.
     */
    bool
    runAheadTo(Tick when)
    {
        if (!heap_.empty() && heap_.front().when <= when)
            return false;
        if (when < curTick_)
            pastTick(when);
        curTick_ = when;
        ++nextSeq_;
        ++executed_;
        return true;
    }

    /** Events executed so far, in-place steps included. */
    std::uint64_t executed() const { return executed_; }

    /**
     * Events scheduled so far, in-place steps included; kept for
     * perfbench/src/traced_stack.cc.
     */
    std::uint64_t nearScheduled() const { return nextSeq_; }

    /** Always 0; kept for perfbench/src/traced_stack.cc. */
    std::uint64_t overflowScheduled() const { return 0; }

    /**
     * Run until the queue drains or @p limit events have been popped
     * off the heap. @p limit counts heap dispatches: the in-place
     * steps (runAheadTo()) an event's callback runs ride with that
     * event's dispatch.
     * @return the final simulated time.
     *
     * The pop/dispatch machinery is DEEPUM_NOALLOC: draining the
     * queue never allocates (heap pops copy entries in place,
     * invoking the callable is one indirect call). The contract
     * covers the queue itself, not the dispatched closure bodies —
     * those are reached through a function pointer and audited at
     * their own definition sites.
     */
    DEEPUM_NOALLOC Tick run(std::uint64_t limit = ~std::uint64_t(0));

    /**
     * Pop and execute at most one event (with the in-place steps its
     * callback runs).
     * @return true if an event was executed.
     */
    DEEPUM_NOALLOC bool step();

    /**
     * Drop all pending events and return the queue to its freshly
     * constructed state: the clock, the tie-break sequence counter
     * and the executed counter all reset to zero, so independent
     * runs sharing one queue object stay bit-identical to runs on a
     * fresh queue.
     */
    void clear();

    /**
     * Attach (or detach with nullptr) the Tracer that components
     * hanging off this queue emit into. The queue does not own it;
     * null means tracing is off (the default).
     */
    void setTracer(Tracer *t) { tracer_ = t; }

    /** The attached tracer, or nullptr when tracing is disabled. */
    Tracer *tracer() const { return tracer_; }

    /**
     * Audit the queue (sim/validate.hh): the heap property, every
     * pending seq below the next one, and that no pending event
     * predates the clock (monotonicity).
     */
    void checkInvariants(CheckContext &ctx) const;

    /** Stream a summary of the queue internals (for violation dumps). */
    void dumpState(std::ostream &os) const;

    /** One pending event; a plain record, so heap moves copy it. */
    struct Entry {
        Tick when;
        std::uint64_t seq;
        EventFn fn;
    };

  private:
    /** Abort: @p when lies before the clock. */
    [[noreturn]] void pastTick(Tick when) const;

    /** True when @p a fires after @p b (the (tick, seq) contract). */
    static bool
    later(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when > b.when;
        return a.seq > b.seq;
    }

    /** Min-heap via later(): front() fires next. */
    std::vector<Entry> heap_;

    Tracer *tracer_ = nullptr;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace deepum::sim
