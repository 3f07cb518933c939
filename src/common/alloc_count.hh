/**
 * @file
 * Global heap-allocation counter for perf harnesses.
 *
 * Including this header REPLACES the global operator new/delete with
 * malloc/free-backed versions that bump an atomic counter, so a
 * harness can assert "N steady-state accesses performed ≤ K heap
 * allocations". Include it in exactly ONE translation unit of a
 * binary that wants counting (bench_sim_speed, test_alloc_budget) and
 * never in the core library: linking it everywhere would silently
 * disable ASan's allocator interposition for every test.
 *
 * It counts calls and requested bytes. Counting is process-wide and
 * thread-safe (relaxed atomics); the counters only ever increase. Read
 * deltas around the region of interest.
 */

#ifndef PALERMO_COMMON_ALLOC_COUNT_HH
#define PALERMO_COMMON_ALLOC_COUNT_HH

#include <atomic>
#include <cstdlib>
#include <new>

namespace palermo {

namespace alloc_count_detail {

inline std::atomic<unsigned long long> g_allocations{0};
inline std::atomic<unsigned long long> g_bytes{0};

inline void
count(std::size_t bytes)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

inline void *
countedAllocate(std::size_t bytes)
{
    count(bytes);
    if (bytes == 0)
        bytes = 1;
    void *p = std::malloc(bytes);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

inline void *
countedAllocateAligned(std::size_t bytes, std::size_t align)
{
    count(bytes);
    if (bytes == 0)
        bytes = align;
    // aligned_alloc wants size as a multiple of alignment.
    const std::size_t rounded = (bytes + align - 1) / align * align;
    void *p = std::aligned_alloc(align, rounded);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace alloc_count_detail

/** Total operator-new calls in this process so far. */
inline unsigned long long
heapAllocationCount()
{
    return alloc_count_detail::g_allocations.load(
        std::memory_order_relaxed);
}

/** Total bytes requested from operator new in this process so far. */
inline unsigned long long
heapAllocatedBytes()
{
    return alloc_count_detail::g_bytes.load(std::memory_order_relaxed);
}

} // namespace palermo

void *
operator new(std::size_t bytes)
{
    return palermo::alloc_count_detail::countedAllocate(bytes);
}

void *
operator new[](std::size_t bytes)
{
    return palermo::alloc_count_detail::countedAllocate(bytes);
}

void *
operator new(std::size_t bytes, std::align_val_t align)
{
    return palermo::alloc_count_detail::countedAllocateAligned(
        bytes, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t bytes, std::align_val_t align)
{
    return palermo::alloc_count_detail::countedAllocateAligned(
        bytes, static_cast<std::size_t>(align));
}

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

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // PALERMO_COMMON_ALLOC_COUNT_HH
