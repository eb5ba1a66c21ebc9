/**
 * @file
 * Ablation for Section 3.2.3's arbitration claims: (a) an uncontested
 * requester waits at most 8 clocks for its token; (b) under contention
 * the token moves sender to sender, so channel utilization rises with
 * contention instead of collapsing.
 *
 * Each trial owns its EventQueue and channel, so the 63 uncontested
 * probes and the contention sweep run concurrently on the campaign
 * engine's worker pool (campaign::parallelFor), results printed in
 * sweep order.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "campaign/parallel_for.hh"
#include "sim/clock.hh"
#include "sim/event_queue.hh"
#include "stats/report.hh"
#include "xbar/optical_channel.hh"

namespace {

using namespace corona;

/** Drive one channel with n contending senders; return utilization. */
struct ContentionResult
{
    double utilization;
    double mean_token_wait_clocks;
};

ContentionResult
driveChannel(std::size_t senders, int messages_per_sender)
{
    sim::EventQueue eq;
    xbar::OpticalChannel channel(eq, sim::coronaClock(), 64, 0);
    channel.setDeliver([](const noc::Message &) {});
    for (int i = 0; i < messages_per_sender; ++i) {
        for (std::size_t s = 0; s < senders; ++s) {
            noc::Message msg;
            msg.src = 1 + s * (63 / senders);
            msg.dst = 0;
            msg.kind = noc::MsgKind::ReadResp; // 80 B = 2 clocks
            channel.send(msg);
        }
    }
    eq.run();
    ContentionResult r;
    r.utilization = static_cast<double>(channel.busyTime()) /
                    static_cast<double>(eq.now());
    r.mean_token_wait_clocks =
        channel.arbiter().waitStats().mean() / 200.0;
    return r;
}

} // namespace

int
main()
{
    using namespace corona;

    // (a) Uncontested worst-case token wait across all requesters.
    std::vector<double> wait_clocks(64, 0.0);
    campaign::parallelFor(63, /*threads=*/0, [&](std::size_t i) {
        const topology::ClusterId requester =
            static_cast<topology::ClusterId>(1 + i);
        sim::EventQueue eq;
        xbar::TokenArbiter arb(eq, 64, 25);
        sim::Tick granted = 0;
        arb.request(requester, [&] { granted = eq.now(); });
        eq.run();
        wait_clocks[1 + i] = static_cast<double>(granted) / 200.0;
    });
    const double worst_wait_clocks =
        *std::max_element(wait_clocks.begin(), wait_clocks.end());
    std::cout << "Uncontested token wait, worst case over all clusters: "
              << stats::formatDouble(worst_wait_clocks, 2)
              << " clocks (paper bound: 8 clocks)\n\n";

    // (b) Utilization versus contention.
    constexpr std::size_t kSenders[] = {1, 2, 4, 8, 16, 32, 63};
    constexpr std::size_t kLevels = std::size(kSenders);
    std::vector<ContentionResult> results(kLevels);
    campaign::parallelFor(kLevels, /*threads=*/0, [&](std::size_t i) {
        results[i] = driveChannel(kSenders[i], 40);
    });

    stats::TableWriter table(
        "Channel utilization vs contention (80 B messages)");
    table.setHeader({"contending senders", "channel utilization",
                     "mean token wait (clocks)"});
    for (std::size_t i = 0; i < kLevels; ++i) {
        table.addRow({std::to_string(kSenders[i]),
                      stats::formatDouble(
                          results[i].utilization * 100.0, 1) + " %",
                      stats::formatDouble(
                          results[i].mean_token_wait_clocks, 2)});
    }
    table.print(std::cout);

    std::cout << "\nPaper: \"When many clusters want the same channel and "
                 "contention is high, token\ntransfer time is low and "
                 "channel utilization is high.\"\n";
    return 0;
}
