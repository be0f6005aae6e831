/**
 * @file
 * The correlator thread (paper Section 3.1).
 *
 * Consumes two streams and updates the two correlation tables:
 *  - execution IDs from the runtime's launch callback (the ioctl),
 *    recorded into the execution ID correlation table;
 *  - faulted UM blocks from the fault-handling thread, recorded into
 *    the per-execution-ID block tables, including the start block
 *    (first fault after a kernel transition) and end block (last
 *    fault before the next transition) used for chaining.
 */

#pragma once

#include <vector>

#include "core/block_correlation_table.hh"
#include "core/exec_correlation_table.hh"
#include "mem/addr.hh"
#include "uvm/block_info.hh"

namespace deepum::core {

/** Updates correlation tables from the launch + fault streams. */
class Correlator
{
  public:
    Correlator(ExecCorrelationTable &exec_table, BlockCorrelationTableSet &blocks);

    /** The runtime announced the next kernel's execution ID. */
    void onKernelLaunch(ExecId next);

    /** A preprocessed fault batch arrived (blocks in fault order). */
    void onFaultBlocks(const std::vector<mem::BlockId> &blocks);

    /**
     * Blocks [@p first, @p end) were freed: drop the in-progress
     * first/last-fault capture if it names one of them, so a dead
     * block is never committed as a chain start/end pointer.
     */
    void onRangeUnregistered(mem::BlockId first, mem::BlockId end);

    /** Execution ID of the kernel currently running. */
    ExecId currentExec() const { return current_; }

    /** The three kernels that ran before the current one. */
    const ExecHistory &history() const { return hist_; }

    /**
     * Disable the start/end capture hysteresis: commit the pointers
     * on every execution (mechanism ablation, DESIGN.md section 6).
     */
    void setCaptureHysteresis(bool on) { hysteresis_ = on; }

  private:
    ExecCorrelationTable &execTable_;
    BlockCorrelationTableSet &blockTables_;

    ExecId current_ = kNoExecId;
    ExecHistory hist_{kNoExecId, kNoExecId, kNoExecId};
    mem::BlockId firstFault_ = uvm::kNoBlock;
    mem::BlockId lastFault_ = uvm::kNoBlock;
    std::uint32_t faultCount_ = 0;
    bool hysteresis_ = true;
};

} // namespace deepum::core
