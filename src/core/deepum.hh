/**
 * @file
 * The DeepUM driver facade (paper Section 3.1, Figure 4).
 *
 * Wires the correlator, prefetcher, pre-evictor, eviction policy,
 * and invalidation flag onto a uvm::Driver. Attaching a DeepUm
 * object is the simulated equivalent of loading the DeepUM Linux
 * kernel module: the base driver keeps working as before, but
 * faults now feed the correlation tables and the prefetch queue.
 */

#pragma once

#include <cstdint>
#include <memory>

#include "core/block_correlation_table.hh"
#include "core/config.hh"
#include "core/correlator.hh"
#include "core/exec_correlation_table.hh"
#include "core/pre_evictor.hh"
#include "core/prefetcher.hh"
#include "sim/stats.hh"
#include "uvm/driver.hh"
#include "uvm/listener.hh"

namespace deepum::core {

/** All DeepUM driver-side machinery, attached to a uvm::Driver. */
class DeepUm : public uvm::DriverListener
{
  public:
    /**
     * Attach DeepUM to @p drv: registers the listener, installs the
     * DeepUM eviction policy, and enables invalidation per @p cfg.
     */
    DeepUm(uvm::Driver &drv, const DeepUmConfig &cfg,
           sim::StatSet &stats);
    ~DeepUm() override;

    /**
     * The runtime's launch callback (the ioctl of Section 3.1):
     * announces the execution ID of the kernel about to launch.
     */
    void notifyKernelLaunch(ExecId id);

    /**
     * Total correlation-table size at full geometry (paper Table 4):
     * a fidelity number, not host memory (see sizeBytes()).
     */
    std::uint64_t tableBytes() const;

    const DeepUmConfig &config() const { return cfg_; }
    const ExecCorrelationTable &execTable() const { return execTable_; }
    const BlockCorrelationTableSet &blockTables() const { return blockTables_; }
    const Correlator &correlator() const { return correlator_; }
    const Prefetcher &prefetcher() const { return prefetcher_; }
    const PreEvictor &preEvictor() const { return preEvictor_; }

    /** Mutable table access (validation tests seed violations here). */
    BlockCorrelationTableSet &blockTables() { return blockTables_; }

    /**
     * Audit the DeepUM-side structures (sim/validate.hh): delegates
     * to the tables and prefetcher, and checks that every committed
     * chain start/end pointer names a block the driver still knows.
     */
    void checkInvariants(sim::CheckContext &ctx) const;

    /** Stream the component states (for violation dumps). */
    void dumpState(std::ostream &os) const;

    // --- uvm::DriverListener ----------------------------------------

    void onFaultBatch(const std::vector<mem::BlockId> &blocks) override;
    void onKernelEnd(const gpu::KernelInfo &k) override;
    void onBlockMigrated(mem::BlockId block, bool was_prefetch) override;
    void onRangeUnregistered(mem::BlockId first,
                             mem::BlockId end) override;
    void onMigrationIdle() override;
    void onBlockAccessed(mem::BlockId block) override;
    void onPrefetchUseful(mem::BlockId block,
                          std::uint32_t exec_id) override;
    void onPrefetchWasted(mem::BlockId block,
                          std::uint32_t exec_id) override;

  private:
    uvm::Driver &drv_;
    DeepUmConfig cfg_;
    ExecCorrelationTable execTable_;
    BlockCorrelationTableSet blockTables_;
    Correlator correlator_;
    Prefetcher prefetcher_;
    PreEvictor preEvictor_;
};

} // namespace deepum::core
