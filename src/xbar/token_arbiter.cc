#include "xbar/token_arbiter.hh"

#include <bit>
#include <stdexcept>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace corona::xbar {

TokenArbiter::TokenArbiter(sim::EventQueue &eq, std::size_t clusters,
                           sim::Tick hop_time)
    : _eq(eq), _clusters(clusters), _hopTime(hop_time),
      _waiting((clusters + 63) / 64, 0)
{
    if (clusters < 2)
        throw std::invalid_argument("TokenArbiter: need >= 2 clusters");
    if (hop_time == 0)
        throw std::invalid_argument("TokenArbiter: hop time must be > 0");
}

std::size_t
TokenArbiter::forwardHops(topology::ClusterId from,
                          topology::ClusterId to) const
{
    // A cluster cannot divert the token at the instant it injects it;
    // reaching "itself" requires a full revolution.
    return to > from ? to - from : to + _clusters - from;
}

sim::Tick
TokenArbiter::freeTokenArrival(topology::ClusterId cluster) const
{
    const sim::Tick loop = loopTime();
    sim::Tick arrival =
        _tokenDeparture + forwardHops(_tokenOrigin, cluster) * _hopTime;
    const sim::Tick now = _eq.now();
    if (arrival < now) {
        const sim::Tick deficit = now - arrival;
        const sim::Tick loops = (deficit + loop - 1) / loop;
        arrival += loops * loop;
    }
    return arrival;
}

topology::ClusterId
TokenArbiter::nextWaiter(topology::ClusterId from) const
{
    std::size_t word = from / 64;
    std::uint64_t bits = _waiting[word] & (~std::uint64_t{0} << (from % 64));
    // Past the last word the scan wraps to position 0; coming back to
    // the first word it sees the bits below from as well.
    while (bits == 0) {
        word = word + 1 == _waiting.size() ? 0 : word + 1;
        bits = _waiting[word];
    }
    return word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
}

void
TokenArbiter::request(topology::ClusterId requester)
{
    if (requester >= _clusters)
        throw std::out_of_range("TokenArbiter::request: bad cluster");
    if (waiting(requester))
        sim::panic("TokenArbiter: duplicate request from cluster");
    _waiting[requester / 64] |= std::uint64_t{1} << (requester % 64);
    _waiters.push_back(Waiter{_eq.now(), requester});
    if (_held)
        return; // The release picks the next waiter.
    const sim::Tick arrival = freeTokenArrival(requester);
    // Batch: the pending grant reaches its waiter first (no two
    // positions share an arrival tick), so the new request rides that
    // event instead of scheduling (and later discarding) another.
    if (_pendingGrant && *_pendingGrant < arrival) {
        ++_grantsBatched;
        ++_pendingBatch;
        return;
    }
    scheduleGrant(requester, arrival);
}

void
TokenArbiter::release(topology::ClusterId holder)
{
    if (!_held)
        sim::panic("TokenArbiter::release without a holder");
    _held = false;
    _tokenOrigin = holder;
    _tokenDeparture = _eq.now();
    if (_waiters.empty())
        return;
    // Freshly injected, the token reaches holder + 1 after one hop and
    // the holder itself only after a full loop.
    const topology::ClusterId winner =
        nextWaiter(holder + 1 == _clusters ? 0 : holder + 1);
    scheduleGrant(winner,
                  _tokenDeparture + forwardHops(holder, winner) * _hopTime);
}

void
TokenArbiter::scheduleGrant(topology::ClusterId winner, sim::Tick at)
{
    const std::uint64_t epoch = ++_grantEpoch;
    _pendingGrant = at;
    _pendingWinner = winner;
    _pendingBatch = 0;
    _eq.schedule(at, [this, epoch, at] {
        if (epoch != _grantEpoch || _held)
            return; // A newer schedule superseded this one.
        fireGrant(_pendingWinner, at);
    });
}

void
TokenArbiter::fireGrant(topology::ClusterId winner, sim::Tick granted_at)
{
    std::size_t at = 0;
    while (_waiters[at].cluster != winner)
        ++at;
    const sim::Tick since = _waiters[at].since;
    _waiters[at] = _waiters.back();
    _waiters.pop_back();
    _waiting[winner / 64] &= ~(std::uint64_t{1} << (winner % 64));
    _held = true;
    ++_grantEpoch; // Invalidate any other scheduled grant.
    const std::uint32_t batched = _pendingBatch;
    _pendingGrant.reset();
    _pendingBatch = 0;
    ++_grants;
    _waitStats.sample(static_cast<double>(granted_at - since));
    if (_tracer) {
        _tracer->record(obs::TraceKind::TokenHandoff, winner, since,
                        granted_at, _traceChannel);
        if (batched != 0) {
            // One span per coalesced drain: aux carries the batch
            // size (schedules served by this single event, survivor
            // included) so Perfetto exports show batching directly.
            _tracer->record(obs::TraceKind::GrantBatch, winner,
                            granted_at, granted_at, batched + 1);
        }
    }
    _grant(winner);
}

} // namespace corona::xbar
