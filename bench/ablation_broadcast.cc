/**
 * @file
 * Ablation for Section 3.2.2: the broadcast bus versus translating each
 * multicast invalidate into unicast crossbar messages, swept over the
 * sharer count. Also times one physical broadcast on the bus model.
 *
 * Each sharer-count cell builds its own pair of CoherentSystems, so the
 * sweep runs concurrently on campaign::parallelFor with rows printed in
 * sweep order.
 */

#include <iostream>
#include <vector>

#include "campaign/parallel_for.hh"
#include "coherence/coherent_system.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "stats/report.hh"
#include "xbar/broadcast_bus.hh"

namespace {

using namespace corona;

std::uint64_t
invalidationMessages(coherence::InvalPolicy policy, std::size_t sharers)
{
    coherence::CoherenceConfig cfg;
    cfg.policy = policy;
    coherence::CoherentSystem sys(cfg);
    constexpr topology::Addr line = 0x8000;
    for (std::size_t p = 1; p <= sharers; ++p)
        sys.read(p, line);
    const auto before =
        sys.messageCount(coherence::CoherenceMsg::Inval) +
        sys.messageCount(coherence::CoherenceMsg::InvalBcast);
    sys.write(0, line);
    sys.checkInvariants();
    const auto after =
        sys.messageCount(coherence::CoherenceMsg::Inval) +
        sys.messageCount(coherence::CoherenceMsg::InvalBcast);
    return after - before;
}

} // namespace

int
main()
{
    using namespace corona;

    constexpr std::size_t kSharers[] = {2, 4, 8, 16, 32, 63};
    constexpr std::size_t kCells = std::size(kSharers);
    std::vector<std::uint64_t> unicast_msgs(kCells);
    std::vector<std::uint64_t> broadcast_msgs(kCells);
    campaign::parallelFor(kCells, /*threads=*/0,
                          [&](std::size_t i) {
                              unicast_msgs[i] = invalidationMessages(
                                  coherence::InvalPolicy::Unicast,
                                  kSharers[i]);
                              broadcast_msgs[i] = invalidationMessages(
                                  coherence::InvalPolicy::Broadcast,
                                  kSharers[i]);
                          });

    stats::TableWriter table(
        "Invalidation transport messages vs sharer count");
    table.setHeader({"sharers", "unicast msgs", "broadcast msgs",
                     "reduction"});
    for (std::size_t i = 0; i < kCells; ++i) {
        const auto unicast = unicast_msgs[i];
        const auto bcast = broadcast_msgs[i];
        table.addRow({std::to_string(kSharers[i]),
                      std::to_string(unicast), std::to_string(bcast),
                      bcast == 0
                          ? std::string("-")
                          : stats::formatDouble(
                                static_cast<double>(unicast) /
                                    static_cast<double>(bcast),
                                1) + "x"});
    }
    table.print(std::cout);

    // Physical latency of one broadcast on the coiled waveguide.
    sim::EventQueue eq;
    xbar::BroadcastBus bus(eq, sim::coronaClock(), 64);
    sim::Tick first = 0, last = 0;
    int seen = 0;
    bus.setDeliver([&](const noc::Message &, topology::ClusterId) {
        if (seen++ == 0)
            first = eq.now();
        last = eq.now();
    });
    noc::Message inval;
    inval.src = 10;
    inval.kind = noc::MsgKind::Invalidate;
    bus.broadcast(inval);
    eq.run();
    std::cout << "\nOne physical broadcast: first snoop at "
              << stats::formatDouble(static_cast<double>(first) / 200.0, 1)
              << " clocks, last at "
              << stats::formatDouble(static_cast<double>(last) / 200.0, 1)
              << " clocks (coil passes every cluster twice).\n";
    return 0;
}
