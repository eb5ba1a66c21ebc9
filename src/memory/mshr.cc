#include "memory/mshr.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "sim/logging.hh"

namespace corona::memory {

MshrFile::MshrFile(std::size_t entries)
    : _capacity(entries)
{
    if (entries == 0)
        throw std::invalid_argument("MshrFile: need >= 1 entry");
}

std::size_t
MshrFile::find(topology::Addr line) const
{
    return static_cast<std::size_t>(
        std::find(_lines.begin(), _lines.end(), line) - _lines.begin());
}

MshrFile::Attach
MshrFile::attach(topology::Addr line, sim::Tick now, WakeFn &&waker)
{
    const std::size_t at = find(line);
    if (at < _lines.size()) {
        _slots[_slotOf[at]].waiters.push_back(std::move(waker));
        ++_coalesced;
        return Attach::Coalesced;
    }
    if (full()) {
        ++_fullStalls;
        return Attach::Full;
    }
    if (at == _slots.size()) {
        // Every slot made so far is in use (at == inUse()): make one.
        _slotOf.push_back(_slots.size());
        _slots.emplace_back();
    }
    _lines.push_back(line);
    Slot &slot = _slots[_slotOf[at]];
    slot.allocated = now;
    slot.waiters.push_back(std::move(waker));
    return Attach::Allocated;
}

void
MshrFile::retire(topology::Addr line, sim::Tick now)
{
    const std::size_t at = find(line);
    if (at == _lines.size())
        sim::panic("MshrFile::retire: line not outstanding");
    Slot &slot = _slots[_slotOf[at]];
    _lifetime.sample(static_cast<double>(now - slot.allocated));

    // Take the waiters out, leaving the spare storage, before anything
    // can reuse the slot.
    std::vector<WakeFn> wakers =
        std::exchange(slot.waiters, std::move(_spare));
    _lines[at] = _lines.back();
    _lines.pop_back();
    std::swap(_slotOf[at], _slotOf[_lines.size()]);

    if (_onFree)
        _onFree();
    for (WakeFn &waker : wakers)
        waker();
    wakers.clear();
    _spare = std::move(wakers);
}

} // namespace corona::memory
