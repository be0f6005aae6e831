#include "harness/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "sim/logging.hh"

namespace deepum::harness {

namespace {

/** Set while the current thread runs a forEach() body. */
thread_local bool tls_in_body = false;

} // namespace

unsigned
hardwareJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, kMaxJobs);
}

ParallelRunner::ParallelRunner(unsigned jobs)
    : jobs_(jobs != 0 ? jobs : hardwareJobs())
{
    if (jobs_ > kMaxJobs)
        sim::panic("ParallelRunner: %u jobs requested, at most %u",
                   jobs_, kMaxJobs);
}

void
ParallelRunner::forEach(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    std::atomic<std::size_t> next{0};
    std::vector<std::exception_ptr> errors(n);
    auto share = [&] {
        const bool outer = tls_in_body;
        tls_in_body = true;
        for (std::size_t i = next++; i < n; i = next++) {
            try {
                body(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
        tls_in_body = outer;
    };

    {
        // A nested call gets no helper, so it runs inline on the
        // body's thread. Each jthread joins when `helpers` goes out
        // of scope, on the exception path of a failed start too.
        std::size_t threads =
            tls_in_body ? 1 : std::min<std::size_t>(jobs_, n);
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1; t < threads; ++t)
            helpers.emplace_back(share);
        share();
    }
    for (const std::exception_ptr &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace deepum::harness
