#include "core/runtime.hh"

namespace deepum::core {

Runtime::Runtime(mem::VaSpace &va, uvm::Driver &drv,
                 gpu::GpuEngine &engine, DeepUm *deepum)
    : va_(va), drv_(drv), engine_(engine), deepum_(deepum)
{
}

mem::VAddr
Runtime::allocManaged(std::uint64_t bytes)
{
    mem::VAddr va = va_.allocate(bytes);
    if (va == 0)
        return 0;
    drv_.registerRange(va, va_.sizeOf(va));
    return va;
}

void
Runtime::freeManaged(mem::VAddr va)
{
    std::uint64_t bytes = va_.sizeOf(va);
    drv_.unregisterRange(va, bytes);
    va_.release(va);
}

void
Runtime::markInactive(mem::VAddr va, std::uint64_t bytes, bool inactive)
{
    drv_.markInactiveRange(va, bytes, inactive);
}

std::size_t
Runtime::memPrefetchAsync(mem::VAddr va, std::uint64_t bytes)
{
    std::size_t accepted = 0;
    for (mem::BlockId b = mem::firstBlock(va, bytes),
                      e = mem::endBlock(va, bytes);
         b != e; ++b) {
        if (drv_.enqueuePrefetch(b, 0))
            ++accepted;
    }
    return accepted;
}

void
Runtime::launchKernel(gpu::KernelInfo *k, sim::EventFn on_done)
{
    if (deepum_ != nullptr) {
        ExecId id = execIds_.lookupOrAssign(*k);
        k->execId = id;
        deepum_->notifyKernelLaunch(id);
    }
    engine_.launch(k, on_done);
}

} // namespace deepum::core
