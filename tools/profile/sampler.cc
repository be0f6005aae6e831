/**
 * @file
 * An uninstrumented sampling profiler, linked into a binary from the
 * outside (see README.md).
 *
 * When PROF_OUT names a file at start-up, a constructor arms
 * ITIMER_PROF, which delivers SIGPROF every millisecond of process
 * CPU time, or at most once per kernel tick (the kernel checks CPU
 * timers on its tick). Each signal records the interrupted program
 * counter and the return addresses found by walking the saved
 * frame-pointer chain within the main thread's stack. At exit the
 * samples are appended to PROF_OUT, one per line, leaf first, as hex
 * addresses, after a header line giving the process CPU seconds they
 * cover and the samples lost to a full buffer; report.py symbolizes
 * them. Build the
 * profiled program with -g -fno-omit-frame-pointer, and link it
 * -static so the recorded addresses are the file's own.
 *
 * Unlike gprof's -pg, nothing in the program is instrumented, so
 * inlined code and library calls (memset, libgcc's 128-bit division)
 * keep their real cost. Frameless library code is seen from its
 * caller's caller: the frame-pointer walk skips its direct caller.
 */

#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>

namespace {

constexpr std::size_t kMaxDepth = 64;
/// Timer period; a kernel tick longer than this sets the real rate.
constexpr long kPeriodUs = 1000;
/// Sample buffer in words: a depth word, then the addresses.
constexpr std::size_t kBufWords = std::size_t(1) << 21; // 16 MiB

std::uintptr_t *buf = nullptr;
std::size_t used = 0;       ///< written only by the signal handler
std::size_t dropped = 0;    ///< samples that found the buffer full
std::uintptr_t stackLo = 0; ///< main thread stack [lo, hi)
std::uintptr_t stackHi = 0;
double cpuStart = 0.0; ///< process CPU seconds when sampling began

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

void
onProf(int, siginfo_t *, void *uctx)
{
    const auto &regs = static_cast<ucontext_t *>(uctx)->uc_mcontext.gregs;
    if (used + kMaxDepth + 1 > kBufWords) {
        ++dropped;
        return;
    }
    std::size_t head = used;
    std::size_t n = head + 1;
    buf[n++] = static_cast<std::uintptr_t>(regs[REG_RIP]);
    // Each frame holds {saved rbp, return address}; follow the links
    // upward while they stay aligned inside the main thread's stack
    // (a sample on another thread, or in code that uses rbp as a
    // plain register, stops the walk instead of faulting).
    auto fp = static_cast<std::uintptr_t>(regs[REG_RBP]);
    auto sp = static_cast<std::uintptr_t>(regs[REG_RSP]);
    while (n - head <= kMaxDepth && fp >= sp && fp >= stackLo &&
           fp + 16 <= stackHi && fp % 8 == 0) {
        const auto *frame = reinterpret_cast<const std::uintptr_t *>(fp);
        if (frame[1] == 0)
            break;
        buf[n++] = frame[1];
        if (frame[0] <= fp)
            break;
        fp = frame[0];
    }
    buf[head] = n - head - 1;
    used = n;
}

void
writeSamples()
{
    itimerval off{};
    setitimer(ITIMER_PROF, &off, nullptr);
    const char *path = std::getenv("PROF_OUT");
    std::FILE *f = std::fopen(path, "a");
    if (f == nullptr) {
        std::fprintf(stderr, "sampler: cannot open PROF_OUT '%s'\n",
                     path);
        return;
    }
    std::fprintf(f, "# cpu_s %.6f dropped %zu\n", cpuSeconds() - cpuStart,
                 dropped);
    for (std::size_t i = 0; i < used;) {
        std::size_t depth = buf[i++];
        for (std::size_t k = 0; k < depth; ++k)
            std::fprintf(f, k == 0 ? "%zx" : " %zx",
                         static_cast<std::size_t>(buf[i++]));
        std::fputc('\n', f);
    }
    std::fclose(f);
}

__attribute__((constructor)) void
startSampler()
{
    if (std::getenv("PROF_OUT") == nullptr)
        return;
    buf = static_cast<std::uintptr_t *>(
        std::malloc(kBufWords * sizeof(std::uintptr_t)));
    pthread_attr_t attr;
    void *lo = nullptr;
    std::size_t size = 0;
    if (buf == nullptr || pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    pthread_attr_getstack(&attr, &lo, &size);
    pthread_attr_destroy(&attr);
    stackLo = reinterpret_cast<std::uintptr_t>(lo);
    stackHi = stackLo + size;

    struct sigaction sa{};
    sa.sa_sigaction = onProf;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    std::atexit(writeSamples);
    itimerval tv{};
    tv.it_interval.tv_usec = kPeriodUs;
    tv.it_value = tv.it_interval;
    cpuStart = cpuSeconds();
    setitimer(ITIMER_PROF, &tv, nullptr);
}

} // namespace
