#include "noc/buffer.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace corona::noc {

CreditBuffer::CreditBuffer(std::size_t capacity)
    : _capacity(capacity)
{
    if (capacity == 0)
        throw std::invalid_argument("CreditBuffer: capacity must be >= 1");
}

bool
CreditBuffer::reserve()
{
    if (!hasCredit())
        return false;
    ++_reserved;
    return true;
}

void
CreditBuffer::unreserve()
{
    if (_reserved == 0)
        sim::panic("CreditBuffer::unreserve without reservation");
    --_reserved;
}

void
CreditBuffer::push(const Message &msg, bool reserved)
{
    if (reserved) {
        if (_reserved == 0)
            sim::panic("CreditBuffer::push claims missing reservation");
        --_reserved;
    } else if (!hasCredit()) {
        sim::panic("CreditBuffer::push without credit");
    }
    _fifo.push_back(msg);
}

const Message &
CreditBuffer::front() const
{
    if (_fifo.empty())
        sim::panic("CreditBuffer::front on empty buffer");
    return _fifo.front();
}

Message
CreditBuffer::pop()
{
    if (_fifo.empty())
        sim::panic("CreditBuffer::pop on empty buffer");
    Message msg = _fifo.front();
    _fifo.pop_front();
    if (_onDrain)
        _onDrain();
    return msg;
}

} // namespace corona::noc
