/**
 * @file
 * Finite buffering with credit-based flow control.
 *
 * The paper's network simulator models "finite buffers, queues, and
 * ports" enforcing back pressure. CreditBuffer is a bounded FIFO whose
 * occupancy is the inverse of the sender-visible credit count; the
 * optical channels' home input buffers are CreditBuffers.
 */

#ifndef CORONA_NOC_BUFFER_HH
#define CORONA_NOC_BUFFER_HH

#include <cstddef>
#include <functional>

#include "noc/message.hh"
#include "noc/ring_fifo.hh"

namespace corona::noc {

/**
 * Bounded message FIFO with credits.
 *
 * Senders must check hasCredit() (or reserve()) before push(); consumers
 * pop() and thereby return a credit. An optional drain callback fires when
 * space frees up so stalled upstream stages can resume.
 */
class CreditBuffer
{
  public:
    /** @param capacity Maximum buffered messages (>= 1). */
    explicit CreditBuffer(std::size_t capacity);

    std::size_t capacity() const { return _capacity; }
    std::size_t size() const { return _fifo.size() + _reserved; }
    bool empty() const { return _fifo.empty(); }

    /** Credits available to senders. */
    std::size_t credits() const { return _capacity - size(); }
    bool hasCredit() const { return credits() > 0; }

    /**
     * Reserve a slot ahead of an in-flight message (credit decrements
     * immediately; the later push() consumes the reservation).
     * @return false when no credit is available.
     */
    bool reserve();

    /** Release an unused reservation. */
    void unreserve();

    /**
     * Append a message. Requires a prior successful reserve() or
     * available credit.
     */
    void push(const Message &msg, bool reserved = false);

    /** Front message; buffer must not be empty. */
    const Message &front() const;

    /** Remove and return the front message, freeing a credit. */
    Message pop();

    /** Register a callback invoked whenever space becomes available. */
    void onDrain(std::function<void()> cb) { _onDrain = std::move(cb); }

    /** Empty the FIFO and drop reservations. The drain callback
     * wiring is kept. */
    void
    reset()
    {
        _fifo.clear();
        _reserved = 0;
    }

  private:
    std::size_t _capacity;
    std::size_t _reserved = 0;
    RingFifo<Message> _fifo;
    std::function<void()> _onDrain;
};

} // namespace corona::noc

#endif // CORONA_NOC_BUFFER_HH
