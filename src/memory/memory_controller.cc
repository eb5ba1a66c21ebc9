#include "memory/memory_controller.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace corona::memory {

MemoryParams
ocmParams()
{
    MemoryParams p;
    p.name = "OCM";
    // 2 x 64-lambda fibers at 10 Gb/s per lambda, half duplex:
    // 128 b x 10 Gb/s / 8 = 160 GB/s per controller (Section 3.3).
    p.bytes_per_second = 160e9;
    p.access_latency = 20000; // 20 ns
    // Light passes daisy-chained OCMs without retiming; a couple of
    // module pass-throughs cost well under a nanosecond.
    p.link_delay = 200;
    return p;
}

MemoryParams
ecmParams()
{
    MemoryParams p;
    p.name = "ECM";
    // 1536 pins / 64 controllers = 24 pins = 12 b full duplex per
    // direction at 10 Gb/s: 0.96 TB/s aggregate -> 15 GB/s each
    // (Table 4).
    p.bytes_per_second = 15e9;
    p.access_latency = 20000; // 20 ns
    p.link_delay = 0;
    return p;
}

namespace {

/** Ticks the off-stack link takes to move one cache line at
 * @p bytes_per_second. Every access moves one line (read fill or
 * write data), so this is the link's serialization time per access. */
sim::Tick
lineTicks(double bytes_per_second)
{
    const double bytes_per_tick =
        bytes_per_second / static_cast<double>(sim::oneSecond);
    const double ticks = std::ceil(
        static_cast<double>(noc::cacheLineBytes) / bytes_per_tick);
    // A Tick cast at or past 2^63 is undefined, and any later tick sum
    // would wrap: reject the bandwidth instead of simulating garbage.
    if (!std::isfinite(bytes_per_second) || !(bytes_per_second > 0) ||
        !(ticks < 0x1p63)) {
        std::ostringstream os;
        os << "MemoryController: bandwidth " << bytes_per_second
           << " B/s is out of range (it must be finite and move a "
           << noc::cacheLineBytes << "-byte line in under 2^63 ticks)";
        throw std::invalid_argument(os.str());
    }
    return static_cast<sim::Tick>(ticks);
}

} // namespace

MemoryController::MemoryController(sim::EventQueue &eq,
                                   topology::ClusterId cluster,
                                   const MemoryParams &params)
    : _eq(eq), _cluster(cluster), _params(params), _dram(params.dram),
      _lineTicks(lineTicks(params.bytes_per_second))
{
}

void
MemoryController::access(const noc::Message &request, topology::Addr addr)
{
    if (request.kind != noc::MsgKind::ReadReq &&
        request.kind != noc::MsgKind::WriteReq) {
        sim::panic("MemoryController::access: not a memory request");
    }
    std::uint32_t slot;
    if (_freeSlots.empty()) {
        slot = static_cast<std::uint32_t>(_slots.size());
        _slots.emplace_back();
    } else {
        slot = _freeSlots.back();
        _freeSlots.pop_back();
    }
    Request &r = _slots[slot];
    r.request = request;
    r.addr = addr;
    r.arrived = _eq.now();
    _queue.push_back(slot);
    _peakQueue = std::max(_peakQueue, _queue.size());
    tryStart();
}

void
MemoryController::tryStart()
{
    if (_busy || _queue.empty())
        return;
    const std::uint32_t slot = _queue.front();
    _queue.pop_front();
    _busy = true;
    const Request &r = _slots[slot];

    const sim::Tick start = _eq.now();
    if (_tracer)
        _tracer->record(obs::TraceKind::McIssue, _cluster, r.arrived, start,
                        static_cast<std::uint32_t>(r.request.src));
    // The off-stack link is the serialization resource.
    const sim::Tick ser = _lineTicks;

    // The DRAM mat performs the array access; conflicts delay its start.
    const sim::Tick mat_ready = _dram.access(r.addr, start);
    const sim::Tick mat_start = mat_ready - _dram.params().mat_occupancy;
    const sim::Tick array_done = mat_start + _params.access_latency;
    const sim::Tick data_ready =
        std::max(start + ser, array_done) + _params.link_delay;

    // The link frees after serialization; the array pipeline overlaps.
    // The completion event captures only (this, slot, tick) and stays
    // inline.
    _eq.scheduleIn(ser, [this] {
        _busy = false;
        tryStart();
    });
    _eq.schedule(data_ready, [this, slot, data_ready] {
        finish(slot, data_ready);
    });
}

void
MemoryController::finish(std::uint32_t slot, sim::Tick data_ready)
{
    // The response handler may call access() again, which can reuse
    // this slot: build the response, free the slot, then call.
    const Request &r = _slots[slot];
    const sim::Tick arrived = r.arrived;
    const noc::Message &request = r.request;
    ++_accesses;
    _bytesMoved += noc::cacheLineBytes;
    _serviceTime.sample(static_cast<double>(data_ready - arrived));
    if (_tracer)
        _tracer->record(obs::TraceKind::McComplete, _cluster, arrived,
                        data_ready,
                        static_cast<std::uint32_t>(request.src));

    noc::Message response;
    response.src = _cluster;
    response.dst = request.src;
    response.kind = request.kind == noc::MsgKind::ReadReq
                        ? noc::MsgKind::ReadResp
                        : noc::MsgKind::WriteAck;
    response.tag = request.tag;
    _freeSlots.push_back(slot);
    _respond(response);
}

void
MemoryController::reset()
{
    if (_slots.size() > keptSlots)
        _slots.clear();
    // Kept slots are free, stacked so the next cell takes them in the
    // order a fresh controller would make them.
    _freeSlots.clear();
    for (auto slot = static_cast<std::uint32_t>(_slots.size()); slot-- > 0;)
        _freeSlots.push_back(slot);
    _queue.clear();
    _busy = false;
    _dram.reset();
    _accesses = 0;
    _bytesMoved = 0;
    _serviceTime.reset();
    _peakQueue = 0;
}

} // namespace corona::memory
