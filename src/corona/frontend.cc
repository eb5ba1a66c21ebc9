#include "corona/frontend.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "corona/system.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/clock.hh"
#include "sim/logging.hh"

namespace corona::core {

namespace {

coherence::CoherenceConfig
coherenceConfigOf(const SystemConfig &config)
{
    coherence::CoherenceConfig cc;
    cc.peers = config.clusters;
    cc.policy = config.inval_transport == InvalTransport::Broadcast
                    ? coherence::InvalPolicy::Broadcast
                    : coherence::InvalPolicy::Unicast;
    cc.broadcast_threshold = config.broadcast_threshold;
    return cc;
}

cache::HierarchyConfig
hierarchyConfigOf(const SystemConfig &config)
{
    cache::HierarchyConfig hc;
    hc.l1_kib = config.l1_kib;
    hc.l1_assoc = config.l1_assoc;
    hc.l2_kib = config.l2_kib;
    hc.l2_assoc = config.l2_assoc;
    hc.line_bytes = config.cache_line;
    hc.write_through = config.write_through;
    return hc;
}

/** Registry path segment for a protocol message type. */
const char *
msgPath(coherence::CoherenceMsg msg)
{
    using coherence::CoherenceMsg;
    switch (msg) {
      case CoherenceMsg::GetS: return "gets";
      case CoherenceMsg::GetM: return "getm";
      case CoherenceMsg::FwdGetS: return "fwdgets";
      case CoherenceMsg::FwdGetM: return "fwdgetm";
      case CoherenceMsg::Inval: return "inval";
      case CoherenceMsg::InvalBcast: return "invalbcast";
      case CoherenceMsg::InvAck: return "invack";
      case CoherenceMsg::Data: return "data";
      case CoherenceMsg::PutM: return "putm";
      case CoherenceMsg::PutS: return "puts";
      case CoherenceMsg::PutAck: return "putack";
    }
    return "unknown";
}

} // namespace

CoherentFrontEnd::CoherentFrontEnd(sim::EventQueue &eq,
                                   CoronaSystem &system,
                                   const SystemConfig &config)
    : _eq(eq), _system(system), _localHop(config.local_hop),
      _writeThrough(config.write_through),
      _passThrough(config.l1_kib == 0 && config.l2_kib == 0),
      _coherence(coherenceConfigOf(config))
{
    if (config.clusters > coherence::maxPeers) {
        sim::fatal("CoherentFrontEnd: the directory tracks at most " +
                   std::to_string(coherence::maxPeers) + " clusters");
    }
    try {
        const cache::HierarchyConfig hc = hierarchyConfigOf(config);
        _hierarchies.reserve(config.clusters);
        for (std::size_t c = 0; c < config.clusters; ++c)
            _hierarchies.emplace_back(hc);
    } catch (const std::invalid_argument &e) {
        sim::fatal(std::string("CoherentFrontEnd: bad cache shape: ") +
                   e.what());
    }

    if (config.network == NetworkKind::XBar) {
        _bus = std::make_unique<xbar::BroadcastBus>(
            eq, sim::coronaClock(), config.clusters);
        _bus->setDeliver([this](const noc::Message &msg,
                                topology::ClusterId cluster) {
            // dst names the requester the snoop spares.
            if (cluster == msg.dst)
                return;
            if (_tracer) {
                // One span per snooped cluster: injection to delivery.
                _tracer->record(obs::TraceKind::CohBroadcast, cluster,
                                msg.injected, _eq.now(), msg.src);
            }
            snoop(coherence::CoherenceMsg::InvalBcast, cluster,
                  decodeLine(msg.tag));
        });
    }

    _coherence.setEmitter([this](coherence::CoherenceMsg msg,
                                 std::size_t from, std::size_t to,
                                 topology::Addr line) {
        emitProtocol(msg, from, to, line);
    });
}

std::uint64_t
CoherentFrontEnd::encodeTag(coherence::CoherenceMsg msg,
                            topology::Addr line)
{
    return (static_cast<std::uint64_t>(msg) << 60) | line;
}

coherence::CoherenceMsg
CoherentFrontEnd::decodeMsg(std::uint64_t tag)
{
    return static_cast<coherence::CoherenceMsg>(tag >> 60);
}

topology::Addr
CoherentFrontEnd::decodeLine(std::uint64_t tag)
{
    return tag & (maxLine - 1);
}

topology::ClusterId
CoherentFrontEnd::homeOf(topology::Addr line) const
{
    const auto home = _coherence.boundHome(line);
    if (!home)
        sim::panic("CoherentFrontEnd: evicting a line never accessed");
    return static_cast<topology::ClusterId>(*home);
}

CoherentFrontEnd::Outcome
CoherentFrontEnd::access(topology::ClusterId cluster, topology::Addr line,
                         topology::ClusterId home, bool write,
                         Hub::Waiter waiter)
{
    Hub &hub = _system.hub(cluster);
    if (_passThrough) {
        // No retention, no sharing: delegate straight to the hub so
        // the event stream matches the miss-stream front end exactly.
        switch (hub.issueMiss(line, home, write, waiter)) {
          case Hub::Issue::Sent: return Outcome::Sent;
          case Hub::Issue::Coalesced: return Outcome::Coalesced;
          case Hub::Issue::MshrFull: return Outcome::MshrFull;
        }
        sim::panic("CoherentFrontEnd: bad issue outcome");
    }

    if (line >= maxLine)
        sim::fatal("CoherentFrontEnd: line address exceeds the tag's "
                   "60-bit sideband encoding");
    // The workload's home must be a pure function of the line: the
    // protocol binds it here, before the MSHR decides, and is fatal
    // on a re-home.
    _coherence.bindHome(line, home);

    cache::ClusterHierarchy &hier = _hierarchies[cluster];
    const coherence::MoesiState st = _coherence.peer(cluster).state(line);
    const bool local_ok =
        hier.contains(line) &&
        (write ? coherence::canWrite(st) : coherence::canRead(st));
    if (local_ok) {
        // Hit: no protocol traffic, no victims possible. One hub
        // traversal models the L2 lookup before the fill returns.
        applyReference(cluster, line, home, write);
        _eq.scheduleIn(_localHop,
                       [hub = &hub, waiter] { hub->wake(waiter); });
        return Outcome::Hit;
    }

    // Miss (or S->M upgrade): the GetS/GetM + Data pair travels as the
    // hub's ordinary request/response. Mutate the hierarchy and the
    // protocol only once the MSHR has admitted the miss, so an
    // MshrFull retry replays this access unchanged.
    const Hub::Issue issue = hub.issueMiss(line, home, write, waiter);
    if (issue == Hub::Issue::MshrFull)
        return Outcome::MshrFull;
    applyReference(cluster, line, home, write);
    return issue == Hub::Issue::Sent ? Outcome::Sent : Outcome::Coalesced;
}

void
CoherentFrontEnd::applyReference(topology::ClusterId cluster,
                                 topology::Addr line,
                                 topology::ClusterId home, bool write)
{
    if (write)
        _coherence.write(cluster, line, home);
    else
        _coherence.read(cluster, line, home);

    const cache::HierarchyResult r =
        _hierarchies[cluster].access(line, write);
    for (const topology::Addr victim : r.evictions) {
        // The directory forgets this cluster; a dirty victim's PutM is
        // emitted by the protocol and becomes writeback traffic.
        _coherence.evict(cluster, victim, homeOf(victim));
    }
    for (const topology::Addr victim : r.writebacks) {
        // Dirty data the protocol did not write back (the line was no
        // longer owned here): covered by an eviction's PutM otherwise.
        if (std::find(r.evictions.begin(), r.evictions.end(), victim) ==
            r.evictions.end()) {
            ++_writebacks;
            recordWriteback(cluster, homeOf(victim));
            _system.hub(cluster).issueWriteback(victim, homeOf(victim));
        }
    }
    if (r.write_through) {
        // A store hit under write-through: the word travels to memory.
        ++_writebacks;
        recordWriteback(cluster, home);
        _system.hub(cluster).issueWriteback(line, home);
    }
}

void
CoherentFrontEnd::emitProtocol(coherence::CoherenceMsg msg,
                               std::size_t from, std::size_t to,
                               topology::Addr line)
{
    using coherence::CoherenceMsg;
    switch (msg) {
      case CoherenceMsg::Inval:
      case CoherenceMsg::FwdGetS:
      case CoherenceMsg::FwdGetM:
        sendSideband(msg, static_cast<topology::ClusterId>(from),
                     static_cast<topology::ClusterId>(to), line);
        break;
      case CoherenceMsg::InvalBcast: {
        ++_broadcasts;
        const auto spared =
            to == coherence::broadcastDest
                ? static_cast<topology::ClusterId>(_hierarchies.size())
                : static_cast<topology::ClusterId>(to);
        if (_bus) {
            noc::Message m;
            m.src = static_cast<topology::ClusterId>(from);
            m.dst = spared; // The requester the snoop spares.
            m.kind = noc::MsgKind::Invalidate;
            m.injected = _eq.now();
            m.tag = encodeTag(CoherenceMsg::InvalBcast, line);
            _bus->broadcast(m);
        } else {
            // Mesh systems have no broadcast bus: fan the pool
            // invalidation out as unicasts.
            for (std::size_t c = 0; c < _hierarchies.size(); ++c) {
                if (c != from && c != spared) {
                    sendSideband(CoherenceMsg::InvalBcast,
                                 static_cast<topology::ClusterId>(from),
                                 static_cast<topology::ClusterId>(c),
                                 line);
                }
            }
        }
        break;
      }
      case CoherenceMsg::PutM:
        // from = evicting peer, to = home.
        ++_writebacks;
        recordWriteback(static_cast<topology::ClusterId>(from),
                        static_cast<topology::ClusterId>(to));
        _system.hub(static_cast<topology::ClusterId>(from))
            .issueWriteback(line, static_cast<topology::ClusterId>(to));
        break;
      default:
        break; // GetS/GetM/Data ride the request/response pair.
    }
}

void
CoherentFrontEnd::sendSideband(coherence::CoherenceMsg msg,
                               topology::ClusterId src,
                               topology::ClusterId dst,
                               topology::Addr line)
{
    noc::Message m;
    m.src = src;
    m.dst = dst;
    m.kind = noc::MsgKind::Invalidate;
    m.injected = _eq.now();
    m.tag = encodeTag(msg, line);
    ++_sidebandMessages;
    if (dst == src) {
        // Home-to-self: one hub traversal, no network.
        _eq.scheduleIn(_localHop, [this, m] { deliverSideband(m); });
    } else {
        _system.network().send(m);
    }
}

void
CoherentFrontEnd::recordWriteback(topology::ClusterId cluster,
                                  topology::ClusterId home)
{
    if (_tracer) {
        // Nobody waits on a writeback, so there is no completion to
        // span: a zero-width marker at issue time, aimed at the home.
        _tracer->record(obs::TraceKind::CohWriteback, cluster,
                        _eq.now(), _eq.now(), home);
    }
}

void
CoherentFrontEnd::deliverSideband(const noc::Message &msg)
{
    using coherence::CoherenceMsg;
    const CoherenceMsg m = decodeMsg(msg.tag);
    const topology::Addr line = decodeLine(msg.tag);
    if (_tracer) {
        // Span the message's network life: injection to delivery, on
        // the receiving cluster's row, peer in aux.
        const obs::TraceKind kind =
            m == CoherenceMsg::Inval ? obs::TraceKind::CohInval
            : m == CoherenceMsg::InvalBcast
                ? obs::TraceKind::CohBroadcast
                : obs::TraceKind::CohForward;
        _tracer->record(kind, msg.dst, msg.injected, _eq.now(),
                        msg.src);
    }
    switch (m) {
      case CoherenceMsg::Inval:
      case CoherenceMsg::InvalBcast:
      case CoherenceMsg::FwdGetM:
        snoop(m, msg.dst, line);
        break;
      case CoherenceMsg::FwdGetS:
        // The owner supplies data but keeps its copy (M->O): the
        // message carries traffic, not a state change here.
        break;
      default:
        sim::panic("CoherentFrontEnd: unexpected sideband subtype");
    }
}

void
CoherentFrontEnd::snoop(coherence::CoherenceMsg msg,
                        topology::ClusterId cluster, topology::Addr line)
{
    const cache::InvalidateResult r =
        _hierarchies[cluster].invalidateLine(line);
    if (r.present) {
        ++_invalHits;
    } else if (msg != coherence::CoherenceMsg::InvalBcast) {
        // A unicast targeted a tracked sharer that no longer holds the
        // line (it raced an eviction); a broadcast snooping a
        // non-sharer is the expected common case and stays silent.
        ++_invalMisses;
    }
    // Dirty copies are stale by the time an invalidation lands (the
    // protocol migrated the data atomically at issue): no writeback.
}

void
CoherentFrontEnd::reset()
{
    for (cache::ClusterHierarchy &hier : _hierarchies)
        hier.reset();
    _coherence.reset();
    if (_bus)
        _bus->reset();
    _sidebandMessages = 0;
    _broadcasts = 0;
    _invalHits = 0;
    _invalMisses = 0;
    _writebacks = 0;
}

void
CoherentFrontEnd::instrument(obs::Registry &registry)
{
    for (std::size_t c = 0; c < _hierarchies.size(); ++c) {
        const cache::ClusterHierarchy &hier = _hierarchies[c];
        const std::string prefix = "cache/" + std::to_string(c) + "/";
        static const char *levels[] = {"l1/", "l2/"};
        const cache::Cache *caches[] = {hier.l1(), hier.l2()};
        for (int level = 0; level < 2; ++level) {
            const cache::Cache *cch = caches[level];
            if (!cch)
                continue;
            const std::string base = prefix + levels[level];
            registry.add(base + "hits", [cch] {
                return static_cast<double>(cch->hits());
            });
            registry.add(base + "misses", [cch] {
                return static_cast<double>(cch->misses());
            });
            registry.add(base + "writebacks", [cch] {
                return static_cast<double>(cch->writebacks());
            });
        }
    }

    using coherence::CoherenceMsg;
    for (std::size_t i = 0; i < coherence::numCoherenceMsgs; ++i) {
        const auto msg = static_cast<CoherenceMsg>(i);
        registry.add(std::string("coherence/msg/") + msgPath(msg),
                     [this, msg] {
            return static_cast<double>(_coherence.messageCount(msg));
        });
    }
    registry.add("coherence/frontend/sideband_messages", [this] {
        return static_cast<double>(_sidebandMessages);
    });
    registry.add("coherence/frontend/broadcasts", [this] {
        return static_cast<double>(_broadcasts);
    });
    registry.add("coherence/frontend/inval_hits", [this] {
        return static_cast<double>(_invalHits);
    });
    registry.add("coherence/frontend/inval_misses", [this] {
        return static_cast<double>(_invalMisses);
    });
    registry.add("coherence/frontend/writebacks", [this] {
        return static_cast<double>(_writebacks);
    });
    if (_bus) {
        registry.add("coherence/bus/broadcasts", [this] {
            return static_cast<double>(_bus->broadcastsSent());
        });
        registry.add("coherence/bus/token/grants", [this] {
            return static_cast<double>(_bus->arbiter().grants());
        });
    }
}

} // namespace corona::core
