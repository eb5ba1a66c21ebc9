#include "corona/hub.hh"

#include "sim/logging.hh"

namespace corona::core {

Hub::Hub(sim::EventQueue &eq, topology::ClusterId cluster,
         noc::Interconnect &network, memory::MemoryController &mc,
         std::size_t mshrs, sim::Tick local_hop)
    : _eq(eq), _cluster(cluster), _network(network), _mc(mc),
      _mshrs(mshrs), _localHop(local_hop)
{
    _mshrs.onFree([this] {
        if (_stalled.empty())
            return;
        const std::uint32_t thread = _stalled.front();
        _stalled.pop_front();
        if (!_client)
            sim::panic("Hub: stall retry with no client bound");
        _client->retry(thread);
    });
    _mshrs.onWake([this](const Waiter &waiter) { wake(waiter); });
    _mc.onResponse(
        [this](const noc::Message &response) { respond(response); });
}

void
Hub::wake(const Waiter &waiter)
{
    if (!_client)
        sim::panic("Hub: fill with no client bound");
    _client->fill(waiter);
}

Hub::Issue
Hub::issueMiss(topology::Addr line, topology::ClusterId home, bool write,
               Waiter waiter)
{
    switch (_mshrs.attach(line, _eq.now(), waiter)) {
      case memory::MshrFile::Attach::Coalesced: return Issue::Coalesced;
      case memory::MshrFile::Attach::Full: return Issue::MshrFull;
      case memory::MshrFile::Attach::Allocated: break;
    }

    noc::Message request;
    request.src = _cluster;
    request.dst = home;
    request.kind = write ? noc::MsgKind::WriteReq : noc::MsgKind::ReadReq;
    request.tag = tagOf(line);

    if (home == _cluster) {
        // Local access: one hub traversal each way, no network.
        ++_localRequests;
        _eq.scheduleIn(_localHop, [this, request] {
            _mc.access(request, lineOf(request.tag));
        });
    } else {
        ++_networkRequests;
        _network.send(request);
    }
    return Issue::Sent;
}

void
Hub::issueWriteback(topology::Addr line, topology::ClusterId home)
{
    noc::Message request;
    request.src = _cluster;
    request.dst = home;
    request.kind = noc::MsgKind::WriteReq;
    request.tag = tagOf(line) | sidebandBit;

    if (home == _cluster) {
        ++_localRequests;
        // The ack is absorbed (respond): nobody waits on a writeback.
        _eq.scheduleIn(_localHop, [this, request] {
            _mc.access(request, lineOf(request.tag));
        });
    } else {
        ++_networkRequests;
        _network.send(request);
    }
}

void
Hub::handleRequest(const noc::Message &msg)
{
    if (msg.dst != _cluster)
        sim::panic("Hub::handleRequest: misdelivered request");
    _mc.access(msg, lineOf(msg.tag));
}

void
Hub::respond(const noc::Message &response)
{
    if (response.dst != _cluster) {
        _network.send(response);
        return;
    }
    // The requester is co-located with the memory: a local miss, a
    // local writeback, or a synthetic pattern routed over the network.
    if (sideband(response.tag))
        return; // Writeback ack: nobody waits.
    _eq.scheduleIn(_localHop, [this, line = lineOf(response.tag)] {
        completeFill(line);
    });
}

void
Hub::handleResponse(const noc::Message &msg)
{
    if (msg.dst != _cluster)
        sim::panic("Hub::handleResponse: misdelivered response");
    if (sideband(msg.tag))
        return; // Writeback ack: nobody waits.
    completeFill(lineOf(msg.tag));
}

void
Hub::completeFill(topology::Addr line)
{
    _mshrs.retire(line, _eq.now());
}

} // namespace corona::core
