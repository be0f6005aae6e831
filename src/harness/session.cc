#include "harness/session.hh"

#include <algorithm>
#include <numeric>

#include "sim/logging.hh"
#include "sim/trace.hh"

namespace deepum::harness {

Session::Session(sim::EventQueue &eq, core::Runtime &rt,
                 torch::CachingAllocator &alloc, sim::StatSet &stats,
                 gpu::PcieLink &link, const torch::Tape &tape,
                 std::uint32_t iterations, std::uint64_t seed,
                 bool manual_prefetch)
    : eq_(eq),
      rt_(rt),
      alloc_(alloc),
      stats_(stats),
      link_(link),
      tape_(tape),
      iterations_(iterations),
      rng_(seed),
      manualPrefetch_(manual_prefetch),
      tensorVa_(tape.tensors.size(), 0)
{
    tape_.validate();
    opKernels_.resize(tape.ops.size());
    for (std::size_t i = 0; i < tape.ops.size(); ++i) {
        const torch::TapeOp &op = tape.ops[i];
        gpu::KernelInfo &ki = opKernels_[i].ki;
        ki.name = op.name;
        ki.argHash = op.argHash;
        ki.computeNs = op.computeNs;
        opKernels_[i].boundVa.assign(op.uses.size(), 0);
    }
    snaps_.reserve(iterations);
    // Resolve the per-iteration snapshot counters once; the name
    // lookup would otherwise run at every iteration boundary.
    pageFaults_ = stats.findScalar("uvm.pageFaults");
    computeTicks_ = stats.findScalar("gpu.computeTicks");
}

bool
Session::run()
{
    processSteps();
    eq_.run();
    DEEPUM_ASSERT(finished_ || oom_,
                  "session stopped with the event queue drained but "
                  "the tape unfinished");
    return !oom_;
}

bool
Session::applyStep(const torch::TapeStep &step)
{
    const torch::TensorDecl &decl = tape_.tensors[step.tensor];
    if (step.kind == torch::StepKind::Alloc) {
        DEEPUM_ASSERT(tensorVa_[step.tensor] == 0,
                      "double allocation of tensor %s",
                      decl.name.c_str());
        mem::VAddr va = alloc_.malloc(decl.bytes);
        if (va == 0) {
            oom_ = true;
            return false;
        }
        tensorVa_[step.tensor] = va;
    } else {
        DEEPUM_ASSERT(tensorVa_[step.tensor] != 0,
                      "free of unallocated tensor %s",
                      decl.name.c_str());
        alloc_.free(tensorVa_[step.tensor]);
        tensorVa_[step.tensor] = 0;
    }
    return true;
}

gpu::KernelInfo &
Session::kernelFor(std::int32_t op_index)
{
    const torch::TapeOp &op = tape_.ops[op_index];
    OpKernel &k = opKernels_[op_index];
    bool stale =
        op.gatherTensor != torch::kNoTensor && op.gatherBlocks > 0;
    for (std::size_t i = 0; i < op.uses.size() && !stale; ++i) {
        // An unbound use (0) always rebuilds, so buildKernel's
        // checks still see it.
        mem::VAddr va = tensorVa_[op.uses[i].tensor];
        stale = va == 0 || va != k.boundVa[i];
    }
    if (stale)
        buildKernel(op, k);
    return k.ki;
}

void
Session::buildKernel(const torch::TapeOp &op, OpKernel &k)
{
    std::vector<gpu::BlockAccess> &accesses = k.ki.accesses;
    accesses.clear();

    auto add_range = [&accesses](mem::VAddr va, std::uint64_t bytes,
                                 bool write) {
        for (mem::BlockId b = mem::firstBlock(va, bytes),
                          e = mem::endBlock(va, bytes);
             b != e; ++b) {
            accesses.push_back(gpu::BlockAccess{
                b,
                static_cast<std::uint32_t>(
                    mem::pagesInBlock(b, va, bytes)),
                write});
        }
    };

    for (std::size_t i = 0; i < op.uses.size(); ++i)
        k.boundVa[i] = tensorVa_[op.uses[i].tensor];

    // Reads first.
    for (const auto &u : op.uses) {
        if (u.write)
            continue;
        DEEPUM_ASSERT(tensorVa_[u.tensor] != 0,
                      "kernel %s uses unallocated tensor %s",
                      op.name.c_str(),
                      tape_.tensors[u.tensor].name.c_str());
        add_range(tensorVa_[u.tensor], tape_.tensors[u.tensor].bytes,
                  false);
    }

    // Then the irregular gather, if any: distinct random blocks of
    // the table, in random order, re-drawn every launch.
    if (op.gatherTensor != torch::kNoTensor && op.gatherBlocks > 0) {
        mem::VAddr va = tensorVa_[op.gatherTensor];
        std::uint64_t bytes = tape_.tensors[op.gatherTensor].bytes;
        DEEPUM_ASSERT(va != 0, "gather from unallocated table");
        mem::BlockId first = mem::firstBlock(va, bytes);
        std::uint64_t nblocks = mem::endBlock(va, bytes) - first;
        std::uint32_t want = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(op.gatherBlocks, nblocks));

        // Partial Fisher-Yates over the block indices.
        gatherIdx_.resize(nblocks);
        std::iota(gatherIdx_.begin(), gatherIdx_.end(), 0u);
        for (std::uint32_t i = 0; i < want; ++i) {
            std::uint64_t j = i + rng_.below(nblocks - i);
            std::swap(gatherIdx_[i], gatherIdx_[j]);
            mem::BlockId b = first + gatherIdx_[i];
            accesses.push_back(gpu::BlockAccess{
                b,
                static_cast<std::uint32_t>(mem::pagesInBlock(
                    b, va, bytes)),
                op.gatherWrites});
        }
    }

    // Writes last.
    for (const auto &u : op.uses) {
        if (!u.write)
            continue;
        DEEPUM_ASSERT(tensorVa_[u.tensor] != 0,
                      "kernel %s writes unallocated tensor %s",
                      op.name.c_str(),
                      tape_.tensors[u.tensor].name.c_str());
        add_range(tensorVa_[u.tensor], tape_.tensors[u.tensor].bytes,
                  true);
    }
}

void
Session::prefetchNextOp(std::size_t from)
{
    // Only look within the iteration body; allocations between here
    // and the next launch have not happened yet, so restrict the
    // prefetch to tensors that are already bound.
    for (std::size_t i = from; i < tape_.iteration.size(); ++i) {
        const torch::TapeStep &s = tape_.iteration[i];
        if (s.kind != torch::StepKind::Launch)
            continue;
        const torch::TapeOp &op = tape_.ops[s.opIndex];
        for (const auto &u : op.uses) {
            if (tensorVa_[u.tensor] == 0)
                continue;
            rt_.memPrefetchAsync(tensorVa_[u.tensor],
                                 tape_.tensors[u.tensor].bytes);
        }
        return;
    }
}

void
Session::processSteps()
{
    for (;;) {
        const auto &steps =
            inPrologue_ ? tape_.prologue : tape_.iteration;

        if (stepIdx_ >= steps.size()) {
            if (inPrologue_) {
                inPrologue_ = false;
                stepIdx_ = 0;
                iterStart_ = eq_.now();
                continue;
            }
            // Iteration boundary.
            IterSnapshot s;
            s.endTick = eq_.now();
            s.pageFaults =
                pageFaults_ != nullptr ? pageFaults_->value() : 0;
            s.computeTicks =
                computeTicks_ != nullptr ? computeTicks_->value() : 0;
            s.linkBusyTicks = link_.busyTicks();
            s.bytesHtoD = link_.bytesHtoD();
            s.bytesDtoH = link_.bytesDtoH();
            snaps_.push_back(s);
            if (auto *tr = eq_.tracer())
                tr->duration(
                    sim::Track::Session,
                    "iter " + std::to_string(iterDone_), iterStart_,
                    s.endTick,
                    {sim::Tracer::arg("iteration",
                                      std::uint64_t(iterDone_)),
                     sim::Tracer::arg("pageFaults", s.pageFaults)});
            if (++iterDone_ >= iterations_) {
                finished_ = true;
                return;
            }
            stepIdx_ = 0;
            iterStart_ = s.endTick;
            continue;
        }

        const torch::TapeStep &step = steps[stepIdx_++];
        if (step.kind == torch::StepKind::Launch) {
            gpu::KernelInfo &ki = kernelFor(step.opIndex);
            if (manualPrefetch_)
                prefetchNextOp(stepIdx_);
            rt_.launchKernel(&ki, [this] { processSteps(); });
            return;
        }
        if (!applyStep(step))
            return; // OOM: stop feeding work
    }
}

} // namespace deepum::harness
