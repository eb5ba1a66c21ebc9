#include "corona/system.hh"

#include <string>
#include <utility>

#include "corona/exec_plan.hh"
#include "corona/frontend.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace corona::core {

namespace {

/**
 * Executor-mode injection adapter. Hubs hold it where they would hold
 * the real network: send() stages the message from the source
 * cluster's entity to the owning entity of the network's receive path
 * (the destination cluster for the crossbar, whose channels are
 * per-destination; the fabric entity for mesh/ideal), at exactly the
 * configured lookahead. The inner network then runs entirely on that
 * entity's queue.
 */
class FabricNet final : public noc::Interconnect
{
  public:
    FabricNet(sim::ShardedExecutor &exec, noc::Interconnect &inner,
              bool per_destination, std::size_t fabric_entity,
              sim::Tick latency)
        : _exec(exec), _inner(inner), _perDestination(per_destination),
          _fabricEntity(fabric_entity), _latency(latency)
    {
    }

    void
    send(const noc::Message &msg) override
    {
        const std::size_t dst =
            _perDestination ? msg.dst : _fabricEntity;
        noc::Interconnect *inner = &_inner;
        _exec.post(msg.src, dst,
                   _exec.queueFor(msg.src).now() + _latency,
                   [inner, msg] { inner->send(msg); });
    }

    std::string name() const override { return _inner.name(); }

    std::size_t
    hopCount(topology::ClusterId src,
             topology::ClusterId dst) const override
    {
        return _inner.hopCount(src, dst);
    }

  private:
    sim::ShardedExecutor &_exec;
    noc::Interconnect &_inner;
    bool _perDestination;
    std::size_t _fabricEntity;
    sim::Tick _latency;
};

} // namespace

CoronaSystem::CoronaSystem(sim::EventQueue &eq, const SystemConfig &config)
    : CoronaSystem(&eq, nullptr, config)
{
}

CoronaSystem::CoronaSystem(sim::ShardedExecutor &exec,
                           const SystemConfig &config)
    : CoronaSystem(nullptr, &exec, config)
{
}

CoronaSystem::CoronaSystem(sim::EventQueue *eq,
                           sim::ShardedExecutor *exec,
                           const SystemConfig &config)
    : _config(config), _geom(config.clusters)
{
    const sim::ClockDomain &clock = sim::coronaClock();
    const sim::Tick lookahead = exec ? exec->lookahead() : 0;
    const std::size_t fabric = fabricEntity(config);

    switch (config.network) {
      case NetworkKind::XBar: {
        auto net = exec
            ? std::make_unique<xbar::OpticalCrossbar>(
                  [exec](topology::ClusterId home) -> sim::EventQueue & {
                      return exec->queueFor(home);
                  },
                  clock, config.clusters, config.xbar_channel)
            : std::make_unique<xbar::OpticalCrossbar>(
                  *eq, clock, config.clusters, config.xbar_channel);
        _xbar = net.get();
        _network = std::move(net);
        // Channel h's delivery statistics update on cluster h's
        // shard; per-destination lanes keep them single-writer and
        // the merge deterministic.
        if (exec)
            _network->shardStatsByDestination(config.clusters);
        break;
      }
      case NetworkKind::HMesh:
      case NetworkKind::LMesh: {
        auto net = std::make_unique<mesh::ElectricalMesh>(
            exec ? exec->queueFor(fabric) : *eq, clock, _geom,
            config.mesh, to_string(config.network));
        _mesh = net.get();
        _network = std::move(net);
        break;
      }
      case NetworkKind::Ideal:
        _network = std::make_unique<noc::IdealInterconnect>(
            exec ? exec->queueFor(fabric) : *eq, 8 * clock.period());
        break;
    }

    if (exec) {
        _fabricNet = std::make_unique<FabricNet>(
            *exec, *_network, config.network == NetworkKind::XBar,
            fabric, lookahead);
    }

    memory::MemoryParams mem_params =
        config.memory == MemoryKind::OCM
            ? memory::OcmSystem().controllerParams()
            : memory::EcmSystem().controllerParams();
    if (config.memory_bandwidth_scale <= 0.0)
        sim::fatal("CoronaSystem: memory_bandwidth_scale must be "
                   "positive");
    mem_params.bytes_per_second *= config.memory_bandwidth_scale;

    _mcs.reserve(config.clusters);
    _hubs.reserve(config.clusters);
    for (topology::ClusterId c = 0; c < config.clusters; ++c) {
        sim::EventQueue &cq = exec ? exec->queueFor(c) : *eq;
        _mcs.push_back(std::make_unique<memory::MemoryController>(
            cq, c, mem_params));
        _hubs.push_back(std::make_unique<Hub>(
            cq, c, exec ? *_fabricNet : *_network, *_mcs.back(),
            config.mshrs_per_cluster, config.local_hop));
    }

    if (config.frontend == FrontendKind::Coherent) {
        if (exec)
            sim::fatal("CoronaSystem: the coherent front end cannot "
                       "run sharded (directory state spans clusters); "
                       "effectiveSimThreads() plans such runs serial");
        _frontEnd =
            std::make_unique<CoherentFrontEnd>(*eq, *this, config);
    }

    if (exec && config.network != NetworkKind::XBar) {
        // Mesh/ideal delivery fires on the fabric entity; stage the
        // hand-off to the destination cluster's shard at the
        // lookahead, mirroring the injection side.
        sim::ShardedExecutor *ex = exec;
        _network->setDeliver(
            [this, ex, fabric, lookahead](const noc::Message &msg) {
                CoronaSystem *self = this;
                ex->post(fabric, msg.dst,
                         ex->queueFor(fabric).now() + lookahead,
                         [self, msg] { self->dispatch(msg); });
            });
    } else {
        // Serial, and the sharded crossbar: channel h delivers on
        // cluster h's own shard, so the hub call is already home.
        _network->setDeliver(
            [this](const noc::Message &msg) { dispatch(msg); });
    }
}

void
CoronaSystem::dispatch(const noc::Message &msg)
{
    Hub &target = *_hubs[msg.dst];
    switch (msg.kind) {
      case noc::MsgKind::ReadReq:
      case noc::MsgKind::WriteReq:
        target.handleRequest(msg);
        break;
      case noc::MsgKind::ReadResp:
      case noc::MsgKind::WriteAck:
        target.handleResponse(msg);
        break;
      case noc::MsgKind::Invalidate:
        // Coherence sideband traffic, generated only by the
        // coherent front end.
        if (!_frontEnd)
            sim::panic("CoronaSystem: unexpected invalidate on "
                       "the NoC");
        _frontEnd->deliverSideband(msg);
        break;
    }
}

CoronaSystem::~CoronaSystem() = default;

void
CoronaSystem::reset()
{
    _network->reset();
    for (auto &mc : _mcs)
        mc->reset();
    for (auto &hub : _hubs)
        hub->reset();
    if (_frontEnd)
        _frontEnd->reset();
}

void
CoronaSystem::instrument(obs::Registry &registry)
{
    // Read the aggregate through netStats(): with per-destination
    // lanes (the sharded engine) it merges them on every call, so a
    // probe must not bind one counter's address. Safe only at
    // quiescent points (samples fire at executor barriers; snapshots
    // after the run).
    const noc::Interconnect *net = _network.get();
    registry.add("net/messages", [net] {
        return static_cast<double>(net->netStats().messages.value());
    });
    registry.add("net/bytes", [net] {
        return static_cast<double>(net->netStats().bytes.value());
    });
    registry.add("net/hops", [net] {
        return static_cast<double>(
            net->netStats().hopTraversals.value());
    });
    registry.add("net/latency/count", [net] {
        return static_cast<double>(net->netStats().latency.count());
    });
    registry.add("net/latency/mean",
                 [net] { return net->netStats().latency.mean(); });
    registry.add("net/latency/min",
                 [net] { return net->netStats().latency.min(); });
    registry.add("net/latency/max",
                 [net] { return net->netStats().latency.max(); });

    if (_xbar) {
        for (topology::ClusterId c = 0; c < _xbar->clusters(); ++c) {
            const xbar::OpticalChannel &ch = _xbar->channel(c);
            const std::string prefix =
                "xbar/ch/" + std::to_string(c) + "/";
            registry.add(prefix + "messages", [&ch] {
                return static_cast<double>(ch.messagesDelivered());
            });
            registry.add(prefix + "bytes", [&ch] {
                return static_cast<double>(ch.bytesDelivered());
            });
            registry.add(prefix + "busy_ticks", [&ch] {
                return static_cast<double>(ch.busyTime());
            });
            registry.add(prefix + "sink_depth", [&ch] {
                return static_cast<double>(ch.sinkDepth());
            });
            registry.add(prefix + "queued", [&ch] {
                return static_cast<double>(ch.queuedMessages());
            });
            registry.add(prefix + "token/grants", [&ch] {
                return static_cast<double>(ch.arbiter().grants());
            });
            registry.add(prefix + "token/grants_batched", [&ch] {
                return static_cast<double>(
                    ch.arbiter().grantsBatched());
            });
            registry.add(prefix + "token/held", [&ch] {
                return ch.arbiter().held() ? 1.0 : 0.0;
            });
            registry.addStats(prefix + "token/wait",
                              ch.arbiter().waitStats());
        }
    }

    if (_mesh) {
        static const std::pair<mesh::Direction, const char *> ports[] = {
            {mesh::Direction::East, "e"},
            {mesh::Direction::West, "w"},
            {mesh::Direction::North, "n"},
            {mesh::Direction::South, "s"},
        };
        for (topology::ClusterId c = 0; c < _config.clusters; ++c) {
            mesh::Router &router = _mesh->router(c);
            const std::string prefix =
                "mesh/r/" + std::to_string(c) + "/";
            registry.add(prefix + "injection_depth", [&router] {
                return static_cast<double>(router.injectionDepth());
            });
            for (const auto &[dir, tag] : ports) {
                const mesh::Direction d = dir;
                registry.add(prefix + "in/" + tag + "/depth",
                             [&router, d] {
                                 return static_cast<double>(
                                     router.inputDepth(d));
                             });
            }
        }
    }

    for (topology::ClusterId c = 0; c < _config.clusters; ++c) {
        const memory::MemoryController &mc = *_mcs[c];
        const std::string prefix = "mc/" + std::to_string(c) + "/";
        registry.add(prefix + "accesses", [&mc] {
            return static_cast<double>(mc.accesses());
        });
        registry.add(prefix + "bytes", [&mc] {
            return static_cast<double>(mc.bytesMoved());
        });
        registry.add(prefix + "queue_depth", [&mc] {
            return static_cast<double>(mc.queueDepth());
        });
        registry.add(prefix + "peak_queue", [&mc] {
            return static_cast<double>(mc.peakQueueDepth());
        });
        registry.addStats(prefix + "service", mc.serviceTime());
    }

    for (topology::ClusterId c = 0; c < _config.clusters; ++c) {
        const Hub &hub = *_hubs[c];
        const std::string prefix = "hub/" + std::to_string(c) + "/";
        registry.add(prefix + "network_requests", [&hub] {
            return static_cast<double>(hub.networkRequests());
        });
        registry.add(prefix + "local_requests", [&hub] {
            return static_cast<double>(hub.localRequests());
        });
        registry.add(prefix + "mshr/in_use", [&hub] {
            return static_cast<double>(hub.mshrs().inUse());
        });
        registry.add(prefix + "mshr/coalesced", [&hub] {
            return static_cast<double>(hub.mshrs().coalesced());
        });
        registry.add(prefix + "mshr/full_stalls", [&hub] {
            return static_cast<double>(hub.mshrs().fullStalls());
        });
        registry.addStats(prefix + "mshr/lifetime",
                          hub.mshrs().lifetime());
    }

    if (_frontEnd)
        _frontEnd->instrument(registry);
}

void
CoronaSystem::setTracer(obs::EventTracer *tracer)
{
    if (_xbar)
        _xbar->setTracer(tracer);
    for (auto &mc : _mcs)
        mc->setTracer(tracer);
    if (_frontEnd)
        _frontEnd->setTracer(tracer);
}

double
CoronaSystem::memoryBandwidth() const
{
    double total = 0.0;
    for (const auto &mc : _mcs)
        total += mc->params().bytes_per_second;
    return total;
}

std::uint64_t
CoronaSystem::memoryBytesMoved() const
{
    std::uint64_t total = 0;
    for (const auto &mc : _mcs)
        total += mc->bytesMoved();
    return total;
}

} // namespace corona::core
