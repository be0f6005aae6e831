/**
 * @file
 * Base class for named simulated components.
 */

#pragma once

#include <string>

#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace deepum::sim {

/**
 * A named component attached to an event queue.
 *
 * Mirrors gem5's SimObject at the scale this project needs: a name
 * for diagnostics plus convenient access to the shared clock.
 */
class SimObject
{
  public:
    /**
     * @param eq the event queue this component schedules on
     * @param name a dotted diagnostic name, e.g. "deepum.prefetcher"
     */
    SimObject(EventQueue &eq, std::string name);
    virtual ~SimObject();

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    /** @return the diagnostic name. */
    const std::string &name() const { return name_; }

    /** @return the attached event queue. */
    EventQueue &eventq() const { return eq_; }

    /** @return the current simulated time. */
    Tick curTick() const { return eq_.now(); }

  protected:
    /** Schedule a member callback @p delay ticks from now. */
    void
    scheduleIn(Tick delay, EventFn fn)
    {
        eq_.scheduleIn(delay, fn);
    }

    /**
     * EventQueue::runAheadTo() @p delay ticks from now: true when the
     * caller may run its next step in place instead of scheduling it.
     */
    bool runAheadIn(Tick delay) { return eq_.runAheadTo(eq_.now() + delay); }

  private:
    EventQueue &eq_;
    std::string name_;
};

} // namespace deepum::sim
