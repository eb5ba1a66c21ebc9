#include "coherence/coherent_system.hh"

#include <stdexcept>
#include <string>

#include "sim/logging.hh"

namespace corona::coherence {

CoherentSystem::CoherentSystem(const CoherenceConfig &config)
    : _config(config), _map(config.peers, 4096, true)
{
    if (config.peers == 0 || config.peers > maxPeers)
        throw std::invalid_argument("CoherentSystem: bad peer count");
    _peers.reserve(config.peers);
    for (std::size_t i = 0; i < config.peers; ++i)
        _peers.emplace_back(i);
}

std::size_t
CoherentSystem::homeOf(topology::Addr line) const
{
    const LineState *state = _lines.find(line);
    return state ? state->home : _map.homeOf(line);
}

std::optional<std::size_t>
CoherentSystem::boundHome(topology::Addr line) const
{
    const LineState *state = _lines.find(line);
    if (!state)
        return std::nullopt;
    return state->home;
}

CoherentSystem::LineState &
CoherentSystem::touch(topology::Addr line, std::size_t home)
{
    const auto [state, inserted] = _lines.tryEmplace(line);
    if (inserted)
        state->home = home;
    else if (state->home != home)
        sim::fatal("CoherentSystem: workload re-homed a line (the home "
                   "must be a pure function of the address)");
    return *state;
}

void
CoherentSystem::bindHome(topology::Addr line, std::size_t home)
{
    touch(line, home);
}

void
CoherentSystem::checkIds(const char *op, std::size_t peer,
                         std::size_t home) const
{
    if (peer >= _peers.size())
        throw std::out_of_range(std::string("CoherentSystem::") + op +
                                ": bad peer");
    if (home >= _peers.size())
        throw std::out_of_range(std::string("CoherentSystem::") + op +
                                ": bad home");
}

void
CoherentSystem::count(CoherenceMsg msg, std::uint64_t n)
{
    _msgCounts[static_cast<std::size_t>(msg)] += n;
}

void
CoherentSystem::emit(CoherenceMsg msg, std::size_t from, std::size_t to,
                     topology::Addr line)
{
    if (_emitter)
        _emitter(msg, from, to, line);
}

void
CoherentSystem::reset()
{
    for (auto &peer : _peers)
        peer.reset();
    _lines.clear();
    _msgCounts.fill(0);
    // The emitter survives: it is wiring, not state.
}

std::uint64_t
CoherentSystem::messageCount(CoherenceMsg msg) const
{
    return _msgCounts[static_cast<std::size_t>(msg)];
}

std::uint64_t
CoherentSystem::totalMessages() const
{
    std::uint64_t total = 0;
    for (const auto count : _msgCounts)
        total += count;
    return total;
}

std::uint64_t
CoherentSystem::memoryVersion(topology::Addr line) const
{
    const LineState *state = _lines.find(line);
    return state ? state->memory : 0;
}

std::uint64_t
CoherentSystem::currentVersion(topology::Addr line) const
{
    for (const auto &peer : _peers) {
        const MoesiState st = peer.state(line);
        if (isDirty(st))
            return peer.version(line);
    }
    return memoryVersion(line);
}

std::uint64_t
CoherentSystem::read(std::size_t peer, topology::Addr line)
{
    return read(peer, line, homeOf(line));
}

std::uint64_t
CoherentSystem::read(std::size_t peer, topology::Addr line, std::size_t home)
{
    checkIds("read", peer, home);
    LineState &state = touch(line, home);
    CachePeer &p = _peers[peer];
    if (canRead(p.state(line)))
        return p.version(line); // Hit; no protocol traffic.

    count(CoherenceMsg::GetS);
    DirectoryEntry &entry = state.entry;
    std::uint64_t version = 0;

    if (entry.owner && *entry.owner != peer) {
        // Forward to the owner, which supplies data.
        count(CoherenceMsg::FwdGetS);
        count(CoherenceMsg::Data);
        emit(CoherenceMsg::FwdGetS, home, *entry.owner, line);
        CachePeer &owner = _peers[*entry.owner];
        version = owner.version(line);
        switch (owner.state(line)) {
          case MoesiState::Modified:
            owner.setState(line, MoesiState::Owned);
            entry.sharers.set(peer);
            break;
          case MoesiState::Owned:
            entry.sharers.set(peer);
            break;
          case MoesiState::Exclusive:
            // Clean owner degrades to a plain sharer.
            owner.setState(line, MoesiState::Shared);
            entry.sharers.set(*entry.owner);
            entry.sharers.set(peer);
            entry.owner.reset();
            break;
          default:
            sim::panic("CoherentSystem: directory owner not an owner");
        }
        p.setLine(line, MoesiState::Shared, version);
    } else if (entry.sharers.any()) {
        // Clean sharers exist; memory supplies data.
        count(CoherenceMsg::Data);
        version = state.memory;
        entry.sharers.set(peer);
        p.setLine(line, MoesiState::Shared, version);
    } else {
        // Uncached: grant Exclusive.
        count(CoherenceMsg::Data);
        version = state.memory;
        entry.owner = peer;
        p.setLine(line, MoesiState::Exclusive, version);
    }
    return version;
}

void
CoherentSystem::invalidateSharers(DirectoryEntry &entry,
                                  topology::Addr line, std::size_t home,
                                  std::size_t except)
{
    SharerSet victims = entry.sharers;
    if (except < maxPeers)
        victims.reset(except);
    const std::size_t n = victims.count();
    if (n == 0)
        return;
    const bool broadcast = _config.policy == InvalPolicy::Broadcast &&
                           n >= _config.broadcast_threshold;
    if (broadcast) {
        count(CoherenceMsg::InvalBcast);
        // `to` carries the excluded requester (its fresh copy must not
        // be snooped away), or broadcastDest when nobody is spared.
        emit(CoherenceMsg::InvalBcast, home,
             except < maxPeers ? except : broadcastDest, line);
    } else {
        count(CoherenceMsg::Inval, n);
    }
    count(CoherenceMsg::InvAck, n);
    for (std::size_t i = 0; i < _peers.size(); ++i) {
        if (victims.test(i)) {
            if (!broadcast)
                emit(CoherenceMsg::Inval, home, i, line);
            _peers[i].setState(line, MoesiState::Invalid);
        }
    }
    entry.sharers &= ~victims;
}

std::uint64_t
CoherentSystem::write(std::size_t peer, topology::Addr line)
{
    return write(peer, line, homeOf(line));
}

std::uint64_t
CoherentSystem::write(std::size_t peer, topology::Addr line, std::size_t home)
{
    checkIds("write", peer, home);
    LineState &state = touch(line, home);
    CachePeer &p = _peers[peer];
    const MoesiState st = p.state(line);

    if (canWrite(st)) {
        // E upgrades to M silently; M stays M.
        const std::uint64_t version = ++state.writes;
        p.setLine(line, MoesiState::Modified, version);
        return version;
    }

    count(CoherenceMsg::GetM);
    DirectoryEntry &entry = state.entry;

    // Fetch data unless this peer already holds a readable copy (S/O).
    if (st == MoesiState::Invalid) {
        if (entry.owner && *entry.owner != peer) {
            count(CoherenceMsg::FwdGetM);
            count(CoherenceMsg::Data);
            emit(CoherenceMsg::FwdGetM, home, *entry.owner, line);
            CachePeer &owner = _peers[*entry.owner];
            // A dirty owner's data flows to the requester; memory is
            // not updated (ownership migrates).
            owner.setState(line, MoesiState::Invalid);
            entry.owner.reset();
        } else {
            count(CoherenceMsg::Data);
        }
    } else if (entry.owner && *entry.owner != peer) {
        // Requester holds S while another peer owns O: invalidate it.
        count(CoherenceMsg::FwdGetM);
        emit(CoherenceMsg::FwdGetM, home, *entry.owner, line);
        _peers[*entry.owner].setState(line, MoesiState::Invalid);
        entry.owner.reset();
    }

    // Kill the remaining sharers.
    invalidateSharers(entry, line, home, peer);
    entry.sharers.reset(peer);

    const std::uint64_t version = ++state.writes;
    entry.owner = peer;
    p.setLine(line, MoesiState::Modified, version);
    return version;
}

void
CoherentSystem::evict(std::size_t peer, topology::Addr line)
{
    evict(peer, line, homeOf(line));
}

void
CoherentSystem::evict(std::size_t peer, topology::Addr line, std::size_t home)
{
    checkIds("evict", peer, home);
    LineState &state = touch(line, home);
    CachePeer &p = _peers[peer];
    const MoesiState st = p.state(line);
    DirectoryEntry &entry = state.entry;

    switch (st) {
      case MoesiState::Modified:
      case MoesiState::Owned:
        count(CoherenceMsg::PutM);
        count(CoherenceMsg::PutAck);
        emit(CoherenceMsg::PutM, peer, home, line);
        state.memory = p.version(line);
        if (entry.owner && *entry.owner == peer)
            entry.owner.reset();
        break;
      case MoesiState::Exclusive:
        count(CoherenceMsg::PutS);
        count(CoherenceMsg::PutAck);
        if (entry.owner && *entry.owner == peer)
            entry.owner.reset();
        break;
      case MoesiState::Shared:
        count(CoherenceMsg::PutS);
        count(CoherenceMsg::PutAck);
        entry.sharers.reset(peer);
        break;
      case MoesiState::Invalid:
        return;
    }
    p.setState(line, MoesiState::Invalid);
}

void
CoherentSystem::checkInvariants() const
{
    _lines.forEach([this](topology::Addr line, const LineState &state) {
        std::size_t writable = 0;
        std::size_t ownerish = 0;
        std::size_t readable = 0;
        for (const auto &peer : _peers) {
            const MoesiState st = peer.state(line);
            if (st == MoesiState::Invalid)
                continue;
            ++readable;
            if (canWrite(st))
                ++writable;
            if (st == MoesiState::Modified || st == MoesiState::Owned ||
                st == MoesiState::Exclusive) {
                ++ownerish;
            }
        }
        if (writable > 1)
            sim::panic("coherence: multiple writable copies");
        if (writable == 1 && readable > 1)
            sim::panic("coherence: writable copy coexists with readers");
        if (ownerish > 1)
            sim::panic("coherence: multiple owners");

        // Freshness: every readable copy observes the current version.
        const std::uint64_t current = currentVersion(line);
        for (const auto &peer : _peers) {
            if (peer.state(line) != MoesiState::Invalid &&
                peer.version(line) != current) {
                sim::panic("coherence: stale readable copy");
            }
        }

        // Directory agreement.
        const DirectoryEntry &entry = state.entry;
        for (const auto &peer : _peers) {
            const MoesiState st = peer.state(line);
            const bool owner_here =
                entry.owner && *entry.owner == peer.id();
            const bool sharer_here = entry.sharers.test(peer.id());
            switch (st) {
              case MoesiState::Modified:
              case MoesiState::Exclusive:
                if (!owner_here)
                    sim::panic("coherence: untracked exclusive owner");
                break;
              case MoesiState::Owned:
                if (!owner_here)
                    sim::panic("coherence: untracked O owner");
                break;
              case MoesiState::Shared:
                if (!sharer_here)
                    sim::panic("coherence: untracked sharer");
                break;
              case MoesiState::Invalid:
                if (owner_here)
                    sim::panic("coherence: directory points at invalid");
                break;
            }
        }
    });
}

} // namespace corona::coherence
