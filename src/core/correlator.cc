#include "core/correlator.hh"

namespace deepum::core {

Correlator::Correlator(ExecCorrelationTable &exec_table,
                       BlockCorrelationTableSet &blocks)
    : execTable_(exec_table), blockTables_(blocks)
{
}

void
Correlator::onKernelLaunch(ExecId next)
{
    if (current_ != kNoExecId) {
        // Close out the kernel that just finished: commit the
        // first/last faulted blocks of its execution as the chain's
        // start/end pointers (with hysteresis against stray faults).
        if (firstFault_ != uvm::kNoBlock) {
            BlockCorrelationTable &bt =
                blockTables_.getOrCreate(current_);
            if (hysteresis_) {
                bt.captureStartEnd(firstFault_, lastFault_,
                                   faultCount_);
            } else {
                // Ablation: the paper's literal commit-every-time.
                bt.setStart(firstFault_);
                bt.setEnd(lastFault_);
            }
        }
        execTable_.record(current_, hist_, next);
        hist_ = ExecHistory{hist_[1], hist_[2], current_};
    }
    current_ = next;
    firstFault_ = uvm::kNoBlock;
    lastFault_ = uvm::kNoBlock;
    faultCount_ = 0;
}

void
Correlator::onFaultBlocks(const std::vector<mem::BlockId> &blocks)
{
    if (current_ == kNoExecId)
        return; // faults before any kernel launch: nothing to learn
    BlockCorrelationTable &bt = blockTables_.getOrCreate(current_);
    for (mem::BlockId b : blocks) {
        if (firstFault_ == uvm::kNoBlock) {
            firstFault_ = b;
        } else if (lastFault_ != uvm::kNoBlock && lastFault_ != b) {
            bt.record(lastFault_, b);
        }
        lastFault_ = b;
        ++faultCount_;
    }
}

void
Correlator::onRangeUnregistered(mem::BlockId first, mem::BlockId end)
{
    if (firstFault_ != uvm::kNoBlock && firstFault_ >= first &&
        firstFault_ < end) {
        firstFault_ = uvm::kNoBlock;
    }
    if (lastFault_ != uvm::kNoBlock && lastFault_ >= first &&
        lastFault_ < end) {
        lastFault_ = uvm::kNoBlock;
    }
}

} // namespace deepum::core
