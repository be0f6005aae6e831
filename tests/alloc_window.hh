/**
 * @file
 * Global allocation counter for the zero-allocation steady-state
 * tests. It replaces the global operator new/delete, so include it
 * from exactly one translation unit per test binary.
 *
 * Counting is toggled by an AllocWindow, so gtest's own bookkeeping
 * between tests never pollutes a measurement.
 */

#pragma once

#include <cstddef>
#include <cstdlib>
#include <new>

namespace alloc_window {

inline std::size_t allocs = 0;
inline std::size_t allocBytes = 0;
inline bool counting = false;

inline void
count(std::size_t n)
{
    if (counting) {
        ++allocs;
        allocBytes += n;
    }
}

} // namespace alloc_window

/** Counts every operator new call while it is alive. */
struct AllocWindow {
    AllocWindow()
    {
        alloc_window::allocs = 0;
        alloc_window::allocBytes = 0;
        alloc_window::counting = true;
    }
    ~AllocWindow() { alloc_window::counting = false; }
    AllocWindow(const AllocWindow &) = delete;
    AllocWindow &operator=(const AllocWindow &) = delete;

    std::size_t count() const { return alloc_window::allocs; }
    std::size_t bytes() const { return alloc_window::allocBytes; }
};

void *
operator new(std::size_t n)
{
    alloc_window::count(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    alloc_window::count(n);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

// Once it inlines these into a delete-expression, GCC pairs free()
// with the new-expression and warns; operator new above is malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#pragma GCC diagnostic pop
