#include "memory/mshr.hh"

#include <stdexcept>

#include "sim/logging.hh"

namespace corona::memory {

MshrFile::MshrFile(std::size_t entries)
    : _capacity(entries)
{
    if (entries == 0)
        throw std::invalid_argument("MshrFile: need >= 1 entry");
}

std::uint32_t
MshrFile::newNode(const Waiter &waiter)
{
    std::uint32_t node = _freeNodes;
    if (node != kNone) {
        _freeNodes = _nodes[node].next;
    } else {
        node = static_cast<std::uint32_t>(_nodes.size());
        _nodes.emplace_back();
    }
    _nodes[node] = Node{waiter.ready, waiter.thread, kNone};
    return node;
}

MshrFile::Attach
MshrFile::attach(topology::Addr line, sim::Tick now, Waiter waiter)
{
    // One probe either way: a full file only looks the line up, and
    // one with room inserts it unless it is already in flight.
    Entry *entry;
    if (full()) {
        entry = _lines.find(line);
        if (!entry) {
            ++_fullStalls;
            return Attach::Full;
        }
    } else {
        const auto [found, inserted] = _lines.tryEmplace(line);
        entry = found;
        if (inserted) {
            const std::uint32_t node = newNode(waiter);
            *entry = Entry{now, node, node};
            return Attach::Allocated;
        }
    }
    const std::uint32_t node = newNode(waiter);
    _nodes[entry->tail].next = node;
    entry->tail = node;
    ++_coalesced;
    return Attach::Coalesced;
}

void
MshrFile::retire(topology::Addr line, sim::Tick now)
{
    const Entry *found = _lines.find(line);
    if (!found)
        sim::panic("MshrFile::retire: line not outstanding");
    const Entry entry = *found;
    _lines.erase(line);
    _lifetime.sample(static_cast<double>(now - entry.allocated));

    if (_onFree)
        _onFree();
    // Free each node before its wake runs: the wake may attach again
    // and take it, so copy it out first.
    for (std::uint32_t n = entry.head; n != kNone;) {
        const Node node = _nodes[n];
        _nodes[n].next = _freeNodes;
        _freeNodes = n;
        n = node.next;
        _onWake(Waiter{node.thread, node.ready});
    }
}

void
MshrFile::reset()
{
    _lines.clear();
    _nodes.clear();
    _freeNodes = kNone;
    _lifetime.reset();
    _coalesced = 0;
    _fullStalls = 0;
}

} // namespace corona::memory
