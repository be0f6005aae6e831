/**
 * @file
 * The DeepUM runtime (paper Section 3.1).
 *
 * In the real system this is an LD_PRELOAD interposer: it turns
 * cudaMalloc into cudaMallocManaged (UM space), intercepts kernel
 * launches to compute execution IDs, and enqueues a callback that
 * ships each launch's execution ID to the driver via ioctl. Here the
 * same three interception points are explicit methods that PyTorch's
 * allocator model and the training session call.
 *
 * A Runtime with no DeepUm attached behaves like plain CUDA UM
 * (the "naive UM" baseline).
 */

#pragma once

#include <cstdint>

#include "core/deepum.hh"
#include "core/execution_id_table.hh"
#include "gpu/gpu_engine.hh"
#include "mem/va_space.hh"
#include "uvm/driver.hh"

namespace deepum::core {

/** The user-space half of DeepUM. */
class Runtime
{
  public:
    /**
     * @param va the UM heap
     * @param drv the UM driver
     * @param engine the GPU
     * @param deepum DeepUM driver module, or nullptr for naive UM
     */
    Runtime(mem::VaSpace &va, uvm::Driver &drv, gpu::GpuEngine &engine,
            DeepUm *deepum = nullptr);

    /**
     * cudaMallocManaged(): allocate UM space and register it with
     * the driver. @return base VA, or 0 when the heap (the host
     * backing store) is exhausted.
     */
    mem::VAddr allocManaged(std::uint64_t bytes);

    /** cudaFree() of a managed allocation. */
    void freeManaged(mem::VAddr va);

    /**
     * The PyTorch-allocator hook of Section 5.2: tell the driver a
     * PT-block range became (in)active.
     */
    void markInactive(mem::VAddr va, std::uint64_t bytes, bool inactive);

    /**
     * cudaMemPrefetchAsync(): user-hint prefetch of [va, va+bytes)
     * into device memory (paper Section 2.2). This is what manual
     * UM-prefetching systems like OC-DNN insert before each DNN
     * operation; DeepUM exists so nobody has to.
     * @return blocks accepted into the prefetch queue
     */
    std::size_t memPrefetchAsync(mem::VAddr va, std::uint64_t bytes);

    /**
     * Intercepted kernel launch: assign the execution ID (stamped
     * into @p k for diagnostics/tracing), deliver the launch
     * callback to the DeepUM driver, then launch for real.
     */
    void launchKernel(gpu::KernelInfo *k, sim::EventFn on_done);

    /** Runtime-side execution ID table. */
    const ExecutionIdTable &execIds() const { return execIds_; }

  private:
    mem::VaSpace &va_;
    uvm::Driver &drv_;
    gpu::GpuEngine &engine_;
    DeepUm *deepum_;
    ExecutionIdTable execIds_;
};

} // namespace deepum::core
