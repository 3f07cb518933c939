/**
 * @file
 * Open-addressing hash table for the simulator hot path.
 *
 * Every per-access lookup table in the inner loop (stash index,
 * position-map overrides, tree-store node index, row-hit predictor,
 * controller tag/MSHR maps) is a dense small-key table. A node-based
 * std::unordered_map pays one cache miss per chain hop for those;
 * FlatMap stores key+value inline in a single power-of-two slot array
 * with linear probing, so a lookup is one hash, one (usually) cache
 * line, and zero pointer chasing.
 *
 * Design choices, in the order they matter:
 *  - Linear probing with tombstone-free backward-shift deletion:
 *    erases compact the probe chain in place, so load factor and probe
 *    lengths never degrade with churn (no tombstone accumulation, no
 *    periodic rehash-to-clean).
 *  - Power-of-two capacity with a splitmix64-style finalizer: the
 *    finalizer's avalanche makes masked bucket indices well distributed
 *    even for sequential keys (block ids, node ids, row keys).
 *  - Tables never shrink: once a table has grown to its working set,
 *    inserts and erases stop touching the heap.
 *  - Max load factor 3/4, minimum capacity 8.
 *
 * Iteration visits slots in table order, which depends on the hash
 * function and insertion/erase history. As with unordered_map, no
 * simulator-observable behavior may depend on it; order-sensitive hot
 * structures (the stash) pair FlatMap with a dense insertion-ordered
 * vector and use the map only as an index.
 *
 * Thread safety: none, by ownership.
 */

#ifndef PALERMO_COMMON_FLAT_MAP_HH
#define PALERMO_COMMON_FLAT_MAP_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

#include "common/log.hh"

namespace palermo {

/**
 * Default FlatMap hasher: splitmix64 finalizer for integral keys
 * (block/node/row ids are sequential-ish; the finalizer's avalanche is
 * what makes masked power-of-two indexing safe), std::hash otherwise.
 */
template <typename K>
struct FlatHash
{
    std::uint64_t
    operator()(const K &key) const
    {
        if constexpr (std::is_integral_v<K> || std::is_enum_v<K>) {
            std::uint64_t x = static_cast<std::uint64_t>(key);
            x += 0x9e3779b97f4a7c15ULL;
            x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
            x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
            return x ^ (x >> 31);
        } else {
            return static_cast<std::uint64_t>(std::hash<K>{}(key));
        }
    }
};

/**
 * Open-addressing hash map with inline key+value slots. Implements the
 * subset of the std::unordered_map API the simulator uses; see the
 * file comment for the layout and deletion scheme.
 *
 * The table is one allocation: [occupied bytes][padding][slots]. An
 * occupied byte per slot (rather than a reserved key) keeps the full
 * key domain usable — kInvalid is a real lookup key in several tables.
 */
template <typename K, typename V, typename Hash = FlatHash<K>>
class FlatMap
{
  public:
    using key_type = K;
    using mapped_type = V;
    /**
     * Unlike unordered_map, value_type is pair<K, V> (not pair<const
     * K, V>): slots relocate on rehash/backward-shift. Do not write
     * through iterator->first.
     */
    using value_type = std::pair<K, V>;
    using size_type = std::size_t;

    template <bool Const>
    class Iter
    {
      public:
        using Owner = std::conditional_t<Const, const FlatMap, FlatMap>;
        using reference =
            std::conditional_t<Const, const value_type &, value_type &>;
        using pointer =
            std::conditional_t<Const, const value_type *, value_type *>;

        Iter() = default;
        Iter(Owner *owner, size_type pos) : owner_(owner), pos_(pos) {}

        /** const_iterator from iterator. */
        template <bool C = Const, typename = std::enable_if_t<C>>
        Iter(const Iter<false> &other)
            : owner_(other.owner()), pos_(other.pos())
        {
        }

        reference operator*() const { return owner_->slots_[pos_]; }
        pointer operator->() const { return owner_->slots_ + pos_; }

        Iter &
        operator++()
        {
            ++pos_;
            skipEmpty();
            return *this;
        }

        bool
        operator==(const Iter &other) const
        {
            return pos_ == other.pos_;
        }

        bool
        operator!=(const Iter &other) const
        {
            return pos_ != other.pos_;
        }

        Owner *owner() const { return owner_; }
        size_type pos() const { return pos_; }

        void
        skipEmpty()
        {
            while (pos_ < owner_->capacity_ && !owner_->occupied_[pos_])
                ++pos_;
        }

      private:
        Owner *owner_ = nullptr;
        size_type pos_ = 0;
    };

    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    FlatMap() = default;

    FlatMap(const FlatMap &) = delete;
    FlatMap &operator=(const FlatMap &) = delete;

    FlatMap(FlatMap &&other) noexcept { stealFrom(other); }

    FlatMap &
    operator=(FlatMap &&other) noexcept
    {
        if (this != &other) {
            destroyAll();
            freeTable();
            stealFrom(other);
        }
        return *this;
    }

    ~FlatMap()
    {
        destroyAll();
        freeTable();
    }

    size_type size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_type capacity() const { return capacity_; }

    iterator
    begin()
    {
        iterator it(this, 0);
        it.skipEmpty();
        return it;
    }

    const_iterator
    begin() const
    {
        const_iterator it(this, 0);
        it.skipEmpty();
        return it;
    }

    iterator end() { return iterator(this, capacity_); }
    const_iterator end() const { return const_iterator(this, capacity_); }

    void
    clear()
    {
        destroyAll();
        if (capacity_ > 0)
            std::memset(occupied_, 0, capacity_);
        size_ = 0;
    }

    /** Grow so `count` entries fit without rehashing. */
    void
    reserve(size_type count)
    {
        size_type needed = kMinCapacity;
        while (count + 1 > maxLoad(needed))
            needed *= 2;
        if (needed > capacity_)
            rehash(needed);
    }

    iterator
    find(const K &key)
    {
        const size_type pos = findPos(key);
        return pos == kNotFound ? end() : iterator(this, pos);
    }

    const_iterator
    find(const K &key) const
    {
        const size_type pos = findPos(key);
        return pos == kNotFound ? end() : const_iterator(this, pos);
    }

    bool contains(const K &key) const { return findPos(key) != kNotFound; }
    size_type count(const K &key) const { return contains(key) ? 1 : 0; }

    /** Value pointer or nullptr — the hot-path lookup shape. */
    V *
    findValue(const K &key)
    {
        const size_type pos = findPos(key);
        return pos == kNotFound ? nullptr : &slots_[pos].second;
    }

    const V *
    findValue(const K &key) const
    {
        const size_type pos = findPos(key);
        return pos == kNotFound ? nullptr : &slots_[pos].second;
    }

    V &
    at(const K &key)
    {
        const size_type pos = findPos(key);
        palermo_assert(pos != kNotFound, "FlatMap::at: missing key");
        return slots_[pos].second;
    }

    const V &
    at(const K &key) const
    {
        const size_type pos = findPos(key);
        palermo_assert(pos != kNotFound, "FlatMap::at: missing key");
        return slots_[pos].second;
    }

    V &
    operator[](const K &key)
    {
        return tryEmplace(key).first->second;
    }

    template <typename... Args>
    std::pair<iterator, bool>
    emplace(const K &key, Args &&...args)
    {
        auto [it, inserted] = tryEmplace(key, std::forward<Args>(args)...);
        return {it, inserted};
    }

    std::pair<iterator, bool>
    insert(const value_type &value)
    {
        return tryEmplace(value.first, value.second);
    }

    template <typename M>
    std::pair<iterator, bool>
    insert_or_assign(const K &key, M &&value)
    {
        auto [it, inserted] = tryEmplace(key, std::forward<M>(value));
        if (!inserted)
            it->second = std::forward<M>(value);
        return {it, inserted};
    }

    size_type
    erase(const K &key)
    {
        const size_type pos = findPos(key);
        if (pos == kNotFound)
            return 0;
        erasePos(pos);
        return 1;
    }

    /**
     * Erase the entry `it` points at. Unlike unordered_map, the
     * backward shift may relocate later probe-chain entries into this
     * slot, so no iterator is returned; re-find to continue scanning.
     */
    void
    erase(const_iterator it)
    {
        palermo_assert(it.pos() < capacity_ && occupied_[it.pos()],
                       "FlatMap::erase: invalid iterator");
        erasePos(it.pos());
    }

  private:
    static constexpr size_type kMinCapacity = 8;
    static constexpr size_type kNotFound = ~size_type{0};

    /** Max entries before growth: 3/4 of capacity. */
    static size_type maxLoad(size_type capacity) { return capacity / 4 * 3; }

    size_type
    findPos(const K &key) const
    {
        if (size_ == 0)
            return kNotFound;
        const size_type mask = capacity_ - 1;
        size_type pos = Hash{}(key) & mask;
        while (occupied_[pos]) {
            if (slots_[pos].first == key)
                return pos;
            pos = (pos + 1) & mask;
        }
        return kNotFound;
    }

    template <typename... Args>
    std::pair<iterator, bool>
    tryEmplace(const K &key, Args &&...args)
    {
        if (size_ + 1 > maxLoad(capacity_))
            rehash(capacity_ == 0 ? kMinCapacity : capacity_ * 2);
        const size_type mask = capacity_ - 1;
        size_type pos = Hash{}(key) & mask;
        while (occupied_[pos]) {
            if (slots_[pos].first == key)
                return {iterator(this, pos), false};
            pos = (pos + 1) & mask;
        }
        ::new (static_cast<void *>(slots_ + pos))
            value_type(std::piecewise_construct, std::forward_as_tuple(key),
                       std::forward_as_tuple(std::forward<Args>(args)...));
        occupied_[pos] = 1;
        ++size_;
        return {iterator(this, pos), true};
    }

    void
    erasePos(size_type pos)
    {
        const size_type mask = capacity_ - 1;
        slots_[pos].~value_type();
        occupied_[pos] = 0;
        --size_;
        // Backward-shift compaction: walk the probe chain after the
        // hole and pull back every entry whose home bucket does not
        // sit strictly inside (hole, entry] — i.e. every entry that a
        // future probe for its key would no longer reach past the
        // hole. Stops at the first empty slot (chain end).
        size_type hole = pos;
        size_type next = (pos + 1) & mask;
        while (occupied_[next]) {
            const size_type home = Hash{}(slots_[next].first) & mask;
            // Cyclic distance from home to `next` vs from hole to
            // `next`: if home is further back than the hole, the entry
            // may move into the hole without breaking its chain.
            if (((next - home) & mask) >= ((next - hole) & mask)) {
                ::new (static_cast<void *>(slots_ + hole))
                    value_type(std::move(slots_[next]));
                slots_[next].~value_type();
                occupied_[hole] = 1;
                occupied_[next] = 0;
                hole = next;
            }
            next = (next + 1) & mask;
        }
    }

    void
    rehash(size_type new_capacity)
    {
        palermo_assert((new_capacity & (new_capacity - 1)) == 0);
        std::uint8_t *old_occupied = occupied_;
        value_type *old_slots = slots_;
        const size_type old_capacity = capacity_;

        capacity_ = new_capacity;
        allocTable();
        const size_type mask = capacity_ - 1;
        for (size_type i = 0; i < old_capacity; ++i) {
            if (!old_occupied[i])
                continue;
            // Keys are unique: probe to the first free slot directly.
            size_type pos = Hash{}(old_slots[i].first) & mask;
            while (occupied_[pos])
                pos = (pos + 1) & mask;
            ::new (static_cast<void *>(slots_ + pos))
                value_type(std::move(old_slots[i]));
            occupied_[pos] = 1;
            old_slots[i].~value_type();
        }
        freeTableAt(old_occupied, old_capacity);
    }

    /** Bytes for occupied[] plus padding to the slot alignment. */
    static size_type
    slotsOffset(size_type capacity)
    {
        const size_type align = alignof(value_type);
        return (capacity + align - 1) / align * align;
    }

    static size_type
    tableBytes(size_type capacity)
    {
        return slotsOffset(capacity) + capacity * sizeof(value_type);
    }

    void
    allocTable()
    {
        void *raw = ::operator new(tableBytes(capacity_),
                                   std::align_val_t{alignof(value_type)});
        occupied_ = static_cast<std::uint8_t *>(raw);
        std::memset(occupied_, 0, capacity_);
        slots_ = reinterpret_cast<value_type *>(
            static_cast<std::uint8_t *>(raw) + slotsOffset(capacity_));
    }

    void
    freeTableAt(std::uint8_t *base, size_type capacity)
    {
        if (base == nullptr)
            return;
        ::operator delete(base, tableBytes(capacity),
                          std::align_val_t{alignof(value_type)});
    }

    void
    freeTable()
    {
        freeTableAt(occupied_, capacity_);
        occupied_ = nullptr;
        slots_ = nullptr;
        capacity_ = 0;
    }

    void
    destroyAll()
    {
        if constexpr (!std::is_trivially_destructible_v<value_type>) {
            for (size_type i = 0; i < capacity_; ++i)
                if (occupied_[i])
                    slots_[i].~value_type();
        }
    }

    void
    stealFrom(FlatMap &other)
    {
        occupied_ = other.occupied_;
        slots_ = other.slots_;
        capacity_ = other.capacity_;
        size_ = other.size_;
        other.occupied_ = nullptr;
        other.slots_ = nullptr;
        other.capacity_ = 0;
        other.size_ = 0;
    }

    std::uint8_t *occupied_ = nullptr; ///< One byte per slot: 0 free.
    value_type *slots_ = nullptr;      ///< Inline key+value storage.
    size_type capacity_ = 0;           ///< Power of two (or 0: empty).
    size_type size_ = 0;
};

} // namespace palermo

#endif // PALERMO_COMMON_FLAT_MAP_HH
