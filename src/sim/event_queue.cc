#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace corona::sim {

EventQueue::EventQueue()
    : _ring(ringWindow)
{
    static_assert((ringWindow & (ringWindow - 1)) == 0,
                  "ring window must be a power of two");
    static_assert(ringWindow % (64 * 64) == 0,
                  "two-level occupancy bitmap needs whole words");
    static_assert((wheelSlots & (wheelSlots - 1)) == 0 &&
                      wheelSlots % 64 == 0,
                  "wheel slots must be a power of two, in whole words");
}

void
EventQueue::markOccupied(std::size_t bucket)
{
    const std::size_t word = bucket / 64;
    _occupied[word] |= std::uint64_t{1} << (bucket % 64);
    _summary[word / 64] |= std::uint64_t{1} << (word % 64);
}

void
EventQueue::clearOccupied(std::size_t bucket)
{
    const std::size_t word = bucket / 64;
    _occupied[word] &= ~(std::uint64_t{1} << (bucket % 64));
    if (_occupied[word] == 0)
        _summary[word / 64] &= ~(std::uint64_t{1} << (word % 64));
}

void
EventQueue::schedulingIntoThePast()
{
    throw std::logic_error("EventQueue: scheduling into the past");
}

EventQueue::NodeId
EventQueue::growPool()
{
    if (_next.size() == noNode)
        throw std::length_error("EventQueue: node pool exhausted");
    const auto node = static_cast<NodeId>(_next.size());
    if (_next.size() == _chunks.size() * chunkNodes)
        _chunks.push_back(std::make_unique<Node[]>(chunkNodes));
    _next.push_back(noNode);
    _when.push_back(0);
    return node;
}

void
EventQueue::append(std::size_t bucket, NodeId node)
{
    Bucket &list = _ring[bucket];
    _next[node] = noNode;
    if (list.head == noNode)
        list.head = node;
    else
        _next[list.tail] = node;
    list.tail = node;
    markOccupied(bucket);
    ++_ringCount;
}

void
EventQueue::appendToSlot(Tick when, NodeId node)
{
    const std::size_t index = slotOf(when);
    Slot &slot = _wheel[index];
    _when[node] = when;
    _next[node] = noNode;
    if (slot.head == noNode) {
        slot.head = node;
        _wheelOccupied[index / 64] |= std::uint64_t{1} << (index % 64);
    } else {
        _next[slot.tail] = node;
    }
    slot.tail = node;
    slot.first = std::min(slot.first, when);
    ++_wheelCount;
}

void
EventQueue::cascade(std::size_t index)
{
    const std::uint64_t bit = std::uint64_t{1} << (index % 64);
    if ((_wheelOccupied[index / 64] & bit) == 0)
        return;
    _wheelOccupied[index / 64] &= ~bit;
    Slot &slot = _wheel[index];
    for (NodeId node = slot.head; node != noNode;) {
        const NodeId next = _next[node];
        append(bucketOf(_when[node]), node);
        --_wheelCount;
        node = next;
    }
    slot = Slot{};
}

EventQueue::NodeId
EventQueue::popFront(std::size_t bucket)
{
    Bucket &list = _ring[bucket];
    const NodeId node = list.head;
    list.head = _next[node];
    // Clear the bit as the list drains, before the callback runs: the
    // bitmap then matches the lists even if the callback throws, and a
    // same-tick reschedule from inside it marks the bucket again.
    if (list.head == noNode)
        clearOccupied(bucket);
    --_ringCount;
    return node;
}

void
EventQueue::invoke(NodeId node)
{
    // The node leaves its bucket before the call and is freed after it,
    // so the callback may schedule (even into its own tick) while it
    // runs from its slot; the chunk under it never moves.
    struct Release
    {
        EventQueue &queue;
        NodeId node;
        ~Release() { queue.freeNode(node); }
    } release{*this, node};
    callback(node)();
}

void
EventQueue::schedule(Tick when, Callback &&cb)
{
    const NodeId node = takeNode(when);
    callback(node) = std::move(cb);
    enqueue(when, node);
}

void
EventQueue::enqueue(Tick when, NodeId node)
{
    if (when < _ringLimit) {
        append(bucketOf(when), node);
    } else if (when - _ringLimit < wheelReach) {
        appendToSlot(when, node);
    } else {
        _heap.push_back(HeapEntry{when, _nextSeq, node});
        std::push_heap(_heap.begin(), _heap.end(), later);
    }
    ++_nextSeq;
    ++_pending;
}

std::size_t
EventQueue::nextRingOffset() const
{
    // Scan from the cursor: leaf word first, then the summary bitmap
    // locates the next non-empty leaf word directly. Every occupied
    // bucket's tick is >= _ringBase, so a set bit "behind" the cursor
    // is a wrapped bucket further ahead; the rotated scan visits
    // buckets in increasing tick order.
    const std::size_t cursor = bucketOf(_ringBase);
    const std::size_t words = _occupied.size();
    const std::size_t word = cursor / 64;
    const std::uint64_t head = _occupied[word] >> (cursor % 64);
    if (head != 0)
        return static_cast<std::size_t>(std::countr_zero(head));

    const std::size_t sum_words = _summary.size();
    const std::size_t sum_word = word / 64;
    // Words strictly after the cursor's within its summary word.
    std::uint64_t sum_bits =
        (word % 64) == 63 ? 0
                          : _summary[sum_word] >> (word % 64 + 1);
    std::size_t next_word = words;
    if (sum_bits != 0) {
        next_word = word + 1 +
                    static_cast<std::size_t>(std::countr_zero(sum_bits));
    } else {
        for (std::size_t i = 1; i <= sum_words; ++i) {
            const std::uint64_t bits =
                _summary[(sum_word + i) % sum_words];
            if (bits != 0) {
                next_word =
                    ((sum_word + i) % sum_words) * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                break;
            }
        }
    }
    const std::uint64_t bits = _occupied[next_word % words];
    const std::size_t bucket =
        (next_word % words) * 64 +
        static_cast<std::size_t>(std::countr_zero(bits));
    // Distance from the cursor, wrapping around the ring.
    return (bucket + ringWindow - cursor) & (ringWindow - 1);
}

std::size_t
EventQueue::nextWheelSlot() const
{
    // From the ring line's slot on, the slots hold increasing ticks,
    // wrapping around the wheel; the last pass re-reads the start
    // word for the slots below the line's.
    const std::size_t start = slotOf(_ringLimit);
    const std::size_t words = _wheelOccupied.size();
    std::uint64_t bits =
        _wheelOccupied[start / 64] & (~std::uint64_t{0} << (start % 64));
    std::size_t word = start / 64;
    for (std::size_t i = 1; bits == 0 && i <= words; ++i) {
        word = (start / 64 + i) % words;
        bits = _wheelOccupied[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

Tick
EventQueue::nextEventTick() const
{
    // Ring ticks lie below the ring line, wheel ticks below its reach,
    // and heap ticks beyond: the first non-empty level holds the
    // minimum.
    if (_ringCount != 0)
        return _ringBase + nextRingOffset();
    if (_wheelCount != 0)
        return _wheel[nextWheelSlot()].first;
    return _heap.empty() ? maxTick : _heap.front().when;
}

void
EventQueue::advanceTo(Tick tick)
{
    _ringBase = tick;
    const Tick line = (tick / wheelSlotTicks + 2) * wheelSlotTicks;
    if (line == _ringLimit)
        return;
    // The ring now takes [_ringLimit, line). Every wheel node on those
    // ticks was scheduled before any direct schedule() could reach
    // them, so each passed slot is appended, in list order, to its
    // ticks' buckets before the line moves. The slots lie in distinct
    // slot-width ranges, so their order does not matter; past a whole
    // turn, every slot is due.
    const Tick due = std::min(line - _ringLimit, wheelReach) / wheelSlotTicks;
    for (Tick n = 0; n < due && _wheelCount != 0; ++n)
        cascade(slotOf(_ringLimit + n * wheelSlotTicks));
    _ringLimit = line;
    // Heap events that entered the wheel's reach were all scheduled
    // before any direct schedule() could reach their slots, which the
    // cascade above just emptied: admit them now, in (tick, sequence)
    // order. After a jump, those below the new line go straight to
    // their buckets, on ticks no other node holds.
    const Tick reach = line + wheelReach;
    while (!_heap.empty() && _heap.front().when < reach) {
        std::pop_heap(_heap.begin(), _heap.end(), later);
        const HeapEntry entry = _heap.back();
        _heap.pop_back();
        if (entry.when < line)
            append(bucketOf(entry.when), entry.node);
        else
            appendToSlot(entry.when, entry.node);
    }
}

Tick
EventQueue::run(Tick limit)
{
    while (_pending != 0) {
        const Tick next = nextEventTick();
        if (next > limit)
            break;
        if (next != _ringBase)
            advanceTo(next);

        // Drain the whole bucket. A callback may schedule back into
        // this tick (appended at the list tail, so re-read the head
        // every iteration) or into the future.
        const std::size_t index = bucketOf(next);
        const Bucket &bucket = _ring[index];
        _now = next;
        while (bucket.head != noNode) {
            const NodeId node = popFront(index);
            --_pending;
            ++_executed;
            invoke(node);
        }
    }
    return _now;
}

void
EventQueue::freeList(NodeId head)
{
    for (NodeId node = head; node != noNode;) {
        const NodeId next = _next[node];
        freeNode(node);
        node = next;
    }
}

void
EventQueue::reset()
{
    // The summary bitmap narrows the walk to occupied leaf words, so a
    // reset after a short run touches O(occupied buckets) storage, not
    // every word of the ring — the pooled-lease fast path.
    for (std::size_t sw = 0; sw < _summary.size(); ++sw) {
        std::uint64_t sum_bits = _summary[sw];
        while (sum_bits != 0) {
            const auto word =
                sw * 64 +
                static_cast<std::size_t>(std::countr_zero(sum_bits));
            sum_bits &= sum_bits - 1;
            std::uint64_t bits = _occupied[word];
            while (bits != 0) {
                const auto bit =
                    static_cast<std::size_t>(std::countr_zero(bits));
                bits &= bits - 1;
                Bucket &bucket = _ring[word * 64 + bit];
                freeList(bucket.head);
                bucket = Bucket{};
                ++_resetBucketsWalked;
            }
            _occupied[word] = 0;
        }
        _summary[sw] = 0;
    }
    for (std::size_t word = 0; word < _wheelOccupied.size(); ++word) {
        for (std::uint64_t bits = _wheelOccupied[word]; bits != 0;
             bits &= bits - 1) {
            Slot &slot =
                _wheel[word * 64 +
                       static_cast<std::size_t>(std::countr_zero(bits))];
            freeList(slot.head);
            slot = Slot{};
            ++_resetBucketsWalked;
        }
        _wheelOccupied[word] = 0;
    }
    for (const HeapEntry &entry : _heap)
        freeNode(entry.node);
    _heap.clear();
    _ringBase = 0;
    _ringLimit = 2 * wheelSlotTicks;
    _ringCount = 0;
    _wheelCount = 0;
    _pending = 0;
    _now = 0;
    _nextSeq = 0;
    _executed = 0;
}

} // namespace corona::sim
