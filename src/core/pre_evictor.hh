/**
 * @file
 * Page pre-eviction (paper Section 5.1).
 *
 * When the migration thread goes idle and free GPU memory is below
 * the watermark, evict victims off the fault critical path so later
 * demand faults find room without paying the eviction write-back.
 */

#pragma once

#include <cstdint>

#include "sim/stats.hh"
#include "uvm/driver.hh"

namespace deepum::core {

/** Keeps a free-frame reserve using idle migration-thread time. */
class PreEvictor
{
  public:
    /**
     * @param drv the UVM driver
     * @param watermark_pages pre-evict while freePages() < this
     */
    PreEvictor(uvm::Driver &drv, std::uint64_t watermark_pages,
               sim::StatSet &stats);

    /**
     * Check the watermark and start at most one eviction. Called
     * from migration-idle and kernel-boundary hooks; each completed
     * pre-eviction re-fires the idle hook, draining to the watermark.
     */
    void poke();

  private:
    uvm::Driver &drv_;
    std::uint64_t watermark_;
    sim::Scalar pokes_;
    sim::Scalar started_;
};

} // namespace deepum::core
