/**
 * @file
 * Zero-cost semantic annotations consumed by tools/analyzer/.
 *
 * The macros expand to [[clang::annotate("...")]] attributes under
 * clang and to nothing elsewhere, so they never affect codegen: gcc
 * builds ignore them entirely, and clang builds carry only metadata
 * (tests/test_annotations.cpp plus the CI annotations-abi job pin
 * this down — an annotated and an annotation-free clang build must
 * produce byte-identical stats).
 *
 * Vocabulary (see DESIGN.md section 3.11 for the full contract):
 *
 *  - DEEPUM_NOALLOC — this function must never reach operator new or
 *    an allocating std-container method, transitively through every
 *    statically-resolvable callee. The analyzer's `noalloc` check
 *    proves it over the whole-program call graph.
 *  - DEEPUM_ALLOC_OK("reason") — escape hatch: this function is a
 *    documented cold path (growth, error termination, tracing) and
 *    the noalloc walk prunes at its boundary. The reason string is
 *    surfaced in analyzer output.
 *  - DEEPUM_VIEW — this type is a non-owning view over storage that
 *    someone else mutates; the `view-escape` check flags instances
 *    stored in fields/containers or held live across calls to
 *    DEEPUM_INVALIDATES_VIEWS methods.
 *  - DEEPUM_INVALIDATES_VIEWS — calling this method invalidates any
 *    outstanding DEEPUM_VIEW instances over the same object.
 *
 * DEEPUM_NO_ANNOTATIONS (cmake -DDEEPUM_DISABLE_ANNOTATIONS=ON)
 * force-disables the attributes even under clang; CI builds both
 * flavors and diffs the stats byte-for-byte.
 */

#pragma once

#include <cstddef>
#include <vector>

#if defined(__clang__) && !defined(DEEPUM_NO_ANNOTATIONS)
#define DEEPUM_ANNOTATE(text) [[clang::annotate(text)]]
#define DEEPUM_ANNOTATIONS_ENABLED 1
#else
#define DEEPUM_ANNOTATE(text)
#define DEEPUM_ANNOTATIONS_ENABLED 0
#endif

/** Marks a function whose whole call graph must be allocation-free. */
#define DEEPUM_NOALLOC DEEPUM_ANNOTATE("deepum::noalloc")

/**
 * Marks a documented cold path the noalloc call-graph walk prunes at.
 * @p reason must be a string literal.
 */
#define DEEPUM_ALLOC_OK(reason) DEEPUM_ANNOTATE("deepum::alloc_ok:" reason)

/** Marks a non-owning view type tracked by the view-escape check. */
#define DEEPUM_VIEW DEEPUM_ANNOTATE("deepum::view")

/** Marks a method that invalidates outstanding views of its object. */
#define DEEPUM_INVALIDATES_VIEWS DEEPUM_ANNOTATE("deepum::invalidates_views")

namespace deepum::support {

/**
 * Append to a vector whose capacity is retained across epochs.
 *
 * Steady-state hot paths append into vectors that are cleared but
 * never shrunk (prefetcher walk/slot vectors, correlation freshTags
 * output, pending-completion slots), so after warmup every append is
 * a store plus a size bump. The push_back can still allocate while
 * the structure is growing toward its high-water mark; routing such
 * appends through this helper concentrates that amortized-growth
 * hatch in one audited place instead of scattering DEEPUM_ALLOC_OK
 * over every call site — and makes raw push_back inside a
 * DEEPUM_NOALLOC region a finding worth reading.
 */
template <typename T, typename U>
DEEPUM_ALLOC_OK("amortized growth toward a retained high-water capacity")
inline void
pushAmortized(std::vector<T> &v, U &&x)
{
    v.push_back(static_cast<U &&>(x));
}

/**
 * Insert @p n copies of @p x at index @p pos of a vector that is never
 * shrunk by reallocation (erase keeps capacity): the middle-insert
 * counterpart of pushAmortized(), with the same hatch. The
 * correlation tables' packed entry arrays grow through it.
 */
template <typename T>
DEEPUM_ALLOC_OK("amortized growth toward a retained high-water capacity")
inline void
insertAmortized(std::vector<T> &v, std::size_t pos, std::size_t n,
                const T &x)
{
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(pos), n, x);
}

} // namespace deepum::support
