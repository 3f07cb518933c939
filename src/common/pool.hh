/**
 * @file
 * Session-lifetime allocation pools for the simulator's hot path.
 *
 * Every ORAM access used to heap-allocate dozens of short-lived
 * objects (plan phases, path scratch vectors, stash map nodes, DRAM
 * queue chunks). These pools trade that churn for memory retained
 * across accesses: a segregated free-list resource backs the node
 * containers. Nothing is returned to the OS before the owning
 * component is destroyed, which is exactly the lifetime of a
 * SimSession.
 *
 * Thread safety: none, by ownership. Each PoolResource is owned by one
 * component (a Stash, a Channel, a controller) and only ever touched
 * by the single thread currently advancing that component. SweepRunner
 * parallelism is across sessions; channel-sharded parallel stepping
 * (sim/parallel.hh) is within one session but assigns each Channel —
 * and therefore its PoolResource — to exactly one worker per barrier
 * epoch, so no pool is ever shared between concurrent threads.
 */

#ifndef PALERMO_COMMON_POOL_HH
#define PALERMO_COMMON_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace palermo {

/**
 * Arena-backed segregated free-list allocator resource.
 *
 * allocate() first consults the free list of the request's rounded
 * size class, then carves from the current arena chunk, then maps a
 * new chunk. deallocate() pushes the block onto its size class for
 * LIFO reuse. Memory is released only on destruction.
 */
class PoolResource
{
  public:
    /** @param chunk_bytes Arena growth granularity. */
    explicit PoolResource(std::size_t chunk_bytes = 16 * 1024);
    ~PoolResource();

    PoolResource(const PoolResource &) = delete;
    PoolResource &operator=(const PoolResource &) = delete;

    void *allocate(std::size_t bytes, std::size_t align);
    void deallocate(void *p, std::size_t bytes, std::size_t align);

    // Introspection (tests and allocation-budget accounting).

    /** Arena chunks mapped so far. */
    std::size_t chunkCount() const { return chunks_.size(); }

    /** Bytes handed out and not yet returned. */
    std::size_t liveBytes() const { return liveBytes_; }

    /** Allocations served from a free list instead of fresh arena. */
    std::uint64_t reuseHits() const { return reuseHits_; }

  private:
    struct FreeNode
    {
        FreeNode *next;
    };

    /** One free list per distinct rounded allocation size. */
    struct SizeClass
    {
        std::size_t bytes = 0;
        FreeNode *head = nullptr;
    };

    static std::size_t roundUp(std::size_t bytes);
    SizeClass &classFor(std::size_t rounded);

    std::size_t chunkBytes_;
    std::vector<std::unique_ptr<unsigned char[]>> chunks_;
    unsigned char *cursor_ = nullptr; ///< Bump pointer in current chunk.
    std::size_t remaining_ = 0;       ///< Bytes left in current chunk.
    std::vector<SizeClass> classes_;  ///< Few distinct sizes: linear scan.
    std::size_t liveBytes_ = 0;
    std::uint64_t reuseHits_ = 0;
};

/**
 * C++17 allocator over a PoolResource, for std containers whose nodes
 * and buckets should recycle within a session (stash and position
 * maps, DRAM queues, tag maps). The resource must outlive every
 * container bound to it: declare the PoolResource member before the
 * container member.
 */
template <typename T>
class PoolAllocator
{
  public:
    using value_type = T;

    explicit PoolAllocator(PoolResource *resource) noexcept
        : resource_(resource)
    {
    }

    template <typename U>
    PoolAllocator(const PoolAllocator<U> &other) noexcept
        : resource_(other.resource())
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            resource_->allocate(n * sizeof(T), alignof(T)));
    }

    void
    deallocate(T *p, std::size_t n)
    {
        resource_->deallocate(p, n * sizeof(T), alignof(T));
    }

    PoolResource *resource() const { return resource_; }

  private:
    PoolResource *resource_;
};

template <typename A, typename B>
bool
operator==(const PoolAllocator<A> &a, const PoolAllocator<B> &b)
{
    return a.resource() == b.resource();
}

template <typename A, typename B>
bool
operator!=(const PoolAllocator<A> &a, const PoolAllocator<B> &b)
{
    return !(a == b);
}

} // namespace palermo

#endif // PALERMO_COMMON_POOL_HH
