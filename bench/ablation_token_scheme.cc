/**
 * @file
 * Ablation for Section 6's arbitration comparison: prior optical token
 * rings "circulate more slowly, as they are designed to stop at every
 * node in the ring, whether or not the node is participating in the
 * arbitration." Corona's token flies past non-participants at the
 * speed of light. This bench compares both schemes at the arbiter
 * level (uncontested wait) and end to end (Uniform on XBar/OCM), with
 * the two end-to-end runs executed as one campaign.
 */

#include <iostream>

#include "campaign/scenario.hh"
#include "campaign/scenario_run.hh"
#include "sim/clock.hh"
#include "sim/logging.hh"
#include "sim/event_queue.hh"
#include "stats/report.hh"
#include "xbar/token_arbiter.hh"

namespace {

using namespace corona;

double
uncontestedWaitClocks(sim::Tick hop)
{
    double worst = 0.0;
    for (topology::ClusterId c = 1; c < 64; ++c) {
        sim::EventQueue eq;
        xbar::TokenArbiter arb(eq, 64, hop);
        sim::Tick granted = 0;
        arb.request(c, [&] { granted = eq.now(); });
        eq.run();
        worst = std::max(worst, static_cast<double>(granted) / 200.0);
    }
    return worst;
}

} // namespace

int
main()
{
    using namespace corona;

    struct Scheme
    {
        const char *name;
        sim::Tick pause;
    };
    const Scheme schemes[] = {
        {"Corona (flying)", 0},
        {"stop at every node (1 clock)", 200},
    };

    // The ablation grid as a serializable scenario: the token dwell
    // is a config knob, so the same experiment ships as
    // scenarios/ablation_token_scheme.scenario for corona-run.
    campaign::ScenarioSpec scenario;
    scenario.name = "token-scheme";
    scenario.workloads = {"Uniform"};
    scenario.configs = {
        "XBar/OCM label=flying-token",
        "XBar/OCM token_node_pause=200 label=stop-every-node",
    };
    scenario.requests = 15'000;
    scenario.seed_policy = campaign::SeedPolicy::Fixed;
    scenario.execution.progress = false;

    const campaign::ScenarioRunResult result =
        campaign::runScenario(scenario, {.quiet = true});

    stats::TableWriter table("Flying token vs stop-at-every-node token");
    table.setHeader({"scheme", "token loop (clocks)",
                     "worst uncontested wait (clocks)",
                     "Uniform XBar/OCM bandwidth", "avg latency (ns)"});

    for (const auto &record : result.records) {
        if (!record.ok)
            sim::fatal("token-scheme ablation: run " +
                       std::to_string(record.index) +
                       " failed: " + record.error);
        const Scheme &scheme = schemes[record.config_index];
        const double loop_clocks =
            64.0 * (25.0 + static_cast<double>(scheme.pause)) / 200.0;
        table.addRow({
            scheme.name,
            stats::formatDouble(loop_clocks, 0),
            stats::formatDouble(
                uncontestedWaitClocks(25 + scheme.pause), 1),
            stats::formatBandwidth(
                record.metrics.achieved_bytes_per_second),
            stats::formatDouble(record.metrics.avg_latency_ns, 1),
        });
    }
    table.print(std::cout);

    std::cout << "\nStopping at every node stretches the 8-clock loop to "
                 "72 clocks, inflating both\nthe uncontested grant bound "
                 "and end-to-end latency — the cost Corona's\n"
                 "all-optical diversion avoids.\n";
    return 0;
}
