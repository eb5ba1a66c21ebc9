#include "coherence/cache_peer.hh"

#include "sim/logging.hh"

namespace corona::coherence {

MoesiState
CachePeer::state(topology::Addr line) const
{
    const Copy *copy = _lines.find(line);
    return copy ? copy->state : MoesiState::Invalid;
}

std::uint64_t
CachePeer::version(topology::Addr line) const
{
    const Copy *copy = _lines.find(line);
    if (!copy)
        sim::panic("CachePeer::version: line not present");
    return copy->version;
}

void
CachePeer::setLine(topology::Addr line, MoesiState state,
                   std::uint64_t version)
{
    if (state == MoesiState::Invalid) {
        _lines.erase(line);
        return;
    }
    _lines[line] = Copy{state, version};
}

void
CachePeer::setState(topology::Addr line, MoesiState state)
{
    if (state == MoesiState::Invalid) {
        _lines.erase(line);
        return;
    }
    Copy *copy = _lines.find(line);
    if (!copy)
        sim::panic("CachePeer::setState: line not present");
    copy->state = state;
}

} // namespace corona::coherence
