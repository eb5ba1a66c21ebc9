/**
 * @file
 * Growable power-of-two ring FIFO.
 *
 * The queue behind every hop of the mesh (router input buffers, output
 * port queues and local injection queues), the broadcast bus's waiting
 * broadcasts, the memory controllers' request queues, the hubs'
 * MSHR-stalled threads and the crossbar channels' credit waits. Unlike
 * std::deque, which allocates and frees a node block as elements cycle
 * through it, the ring allocates only when it grows past its largest
 * depth so far and then keeps its storage, so a queue that cycles at a
 * steady depth never touches the allocator.
 */

#ifndef CORONA_NOC_RING_FIFO_HH
#define CORONA_NOC_RING_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace corona::noc {

/** FIFO of copyable values over a ring that doubles when full. */
template <typename T>
class RingFifo
{
  public:
    bool empty() const { return _size == 0; }
    std::size_t size() const { return _size; }

    /** Oldest element; the FIFO must not be empty. */
    const T &front() const { return _slots[_head]; }

    void
    push_back(const T &value)
    {
        if (_size == _slots.size())
            grow();
        _slots[(_head + _size) & (_slots.size() - 1)] = value;
        ++_size;
    }

    /** Drop the oldest element; the FIFO must not be empty. */
    void
    pop_front()
    {
        _head = (_head + 1) & (_slots.size() - 1);
        --_size;
    }

    /** Empty the FIFO, keeping its storage. */
    void
    clear()
    {
        _head = 0;
        _size = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> wider(_slots.empty() ? 8 : 2 * _slots.size());
        for (std::size_t i = 0; i < _size; ++i)
            wider[i] = _slots[(_head + i) & (_slots.size() - 1)];
        _slots = std::move(wider);
        _head = 0;
    }

    /** Ring storage; its size is zero or a power of two. */
    std::vector<T> _slots;
    std::size_t _head = 0;
    std::size_t _size = 0;
};

} // namespace corona::noc

#endif // CORONA_NOC_RING_FIFO_HH
