/**
 * @file
 * Open-addressing hash map from 64-bit keys to small values.
 *
 * The coherence protocol keeps per-line state (home, versions,
 * directory entry, each peer's copy) for every line a run touches, and
 * looks it up on every reference. std::unordered_map allocates a node
 * per entry, and GCC's emplace allocates one before it looks the key
 * up, so a lookup-or-insert per reference would reach the allocator.
 * FlatMap keeps its entries in one power-of-two slot array: linear
 * probing from a multiplicative hash, backward-shift erase (no
 * tombstones, so probe runs never degrade), and a clear() that keeps
 * the storage for the next run. It allocates only when it grows.
 */

#ifndef CORONA_SIM_FLAT_MAP_HH
#define CORONA_SIM_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/logging.hh"

namespace corona::sim {

/** Hash map from std::uint64_t keys to default-constructible values. */
template <typename Value>
class FlatMap
{
  public:
    using Key = std::uint64_t;

    /** Marks an empty slot; the one key the map cannot hold. */
    static constexpr Key emptyKey = ~Key{0};

    std::size_t size() const { return _size; }
    /** Slots allocated (zero or a power of two). */
    std::size_t capacity() const { return _slots.size(); }

    /** The value under @p key, or nullptr. */
    Value *
    find(Key key)
    {
        return const_cast<Value *>(std::as_const(*this).find(key));
    }

    const Value *
    find(Key key) const
    {
        if (_size == 0 || key == emptyKey)
            return nullptr;
        for (std::size_t i = home(key);; i = next(i)) {
            const Slot &slot = _slots[i];
            if (slot.key == key)
                return &slot.value;
            if (slot.key == emptyKey)
                return nullptr;
        }
    }

    /**
     * The value under @p key, inserting a value-initialised one when
     * absent; the flag is true when it was inserted. The pointer stays
     * valid until the next insertion or erase.
     */
    std::pair<Value *, bool>
    tryEmplace(Key key)
    {
        if (key == emptyKey)
            panic("FlatMap: the all-ones key is reserved");
        if (4 * (_size + 1) > 3 * _slots.size())
            grow();
        std::size_t i = home(key);
        for (; _slots[i].key != emptyKey; i = next(i)) {
            if (_slots[i].key == key)
                return {&_slots[i].value, false};
        }
        _slots[i].key = key;
        _slots[i].value = Value{};
        ++_size;
        return {&_slots[i].value, true};
    }

    Value &operator[](Key key) { return *tryEmplace(key).first; }

    /** Remove @p key; @return true when it was present. */
    bool
    erase(Key key)
    {
        if (_size == 0 || key == emptyKey)
            return false;
        std::size_t hole = home(key);
        for (; _slots[hole].key != key; hole = next(hole)) {
            if (_slots[hole].key == emptyKey)
                return false;
        }
        // Backward shift: pull each later entry of the run into the
        // hole unless its home lies after the hole (it would then be
        // unreachable from its home).
        const std::size_t mask = _slots.size() - 1;
        for (std::size_t i = next(hole); _slots[i].key != emptyKey;
             i = next(i)) {
            if (((i - home(_slots[i].key)) & mask) >= ((i - hole) & mask)) {
                _slots[hole] = std::move(_slots[i]);
                hole = i;
            }
        }
        _slots[hole].key = emptyKey;
        --_size;
        return true;
    }

    /** Remove every entry, keeping the storage. */
    void
    clear()
    {
        if (_size == 0)
            return;
        for (Slot &slot : _slots)
            slot.key = emptyKey;
        _size = 0;
    }

    /** Call @p fn(key, value) for every entry, in slot order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Slot &slot : _slots) {
            if (slot.key != emptyKey)
                fn(slot.key, slot.value);
        }
    }

  private:
    struct Slot
    {
        Key key = emptyKey;
        Value value{};
    };

    /** Fibonacci hashing: the top bits of key x 2^64/phi. */
    std::size_t
    home(Key key) const
    {
        return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >>
                                        _shift);
    }

    std::size_t
    next(std::size_t i) const
    {
        return (i + 1) & (_slots.size() - 1);
    }

    /** Double the slots (16 at first) and reinsert every entry; the
     * load stays at or below three quarters. */
    void
    grow()
    {
        const std::size_t capacity =
            _slots.empty() ? 16 : 2 * _slots.size();
        std::vector<Slot> old =
            std::exchange(_slots, std::vector<Slot>(capacity));
        _shift = 64 - static_cast<unsigned>(std::countr_zero(capacity));
        for (Slot &slot : old) {
            if (slot.key == emptyKey)
                continue;
            std::size_t i = home(slot.key);
            while (_slots[i].key != emptyKey)
                i = next(i);
            _slots[i] = std::move(slot);
        }
    }

    std::vector<Slot> _slots;
    std::size_t _size = 0;
    /** 64 - log2(capacity); meaningless while there are no slots. */
    unsigned _shift = 64;
};

} // namespace corona::sim

#endif // CORONA_SIM_FLAT_MAP_HH
