/**
 * @file
 * Unit and property tests for the optical token-ring arbiter
 * (Section 3.2.3): bounded uncontested wait, ring-order round-robin
 * grants, fairness under sustained contention, mutual exclusion.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "xbar/token_arbiter.hh"

namespace {

using namespace corona;
using sim::EventQueue;
using sim::Tick;
using xbar::TokenArbiter;

/** Corona values: 64 clusters, 25 ps token hop (8 clocks per loop). */
constexpr std::size_t kClusters = 64;
constexpr Tick kHop = 25;
constexpr Tick kLoop = kHop * kClusters; // 1600 ps = 8 clocks

TEST(TokenArbiter, LoopTimeIsEightClocks)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    EXPECT_EQ(arb.loopTime(), 1600u);
    EXPECT_EQ(arb.hopTime(), 25u);
}

TEST(TokenArbiter, UncontestedGrantWithinOneLoop)
{
    // "a cluster may wait as long as 8 processor clock cycles for an
    // uncontested token" — the bound the paper states, for every
    // requester (the farthest, cluster 63, waits 63 hops: 7.875 clocks).
    for (std::size_t requester = 0; requester < kClusters; ++requester) {
        EventQueue eq;
        TokenArbiter arb(eq, kClusters, kHop);
        Tick granted = 0;
        bool got = false;
        arb.request(requester, [&] {
            got = true;
            granted = eq.now();
        });
        eq.run();
        ASSERT_TRUE(got);
        EXPECT_LE(granted, kLoop) << "requester " << requester;
    }
}

TEST(TokenArbiter, GrantTimeMatchesRingDistance)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    // Token starts at cluster 0 at t=0; cluster 5 is 5 hops downstream.
    Tick granted = 0;
    arb.request(5, [&] { granted = eq.now(); });
    eq.run();
    EXPECT_EQ(granted, 5 * kHop);
}

TEST(TokenArbiter, HolderExcludesOthersUntilRelease)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    bool second = false;
    arb.request(2, [&] {});
    eq.run();
    EXPECT_TRUE(arb.held());
    arb.request(3, [&] { second = true; });
    eq.run();
    EXPECT_FALSE(second) << "grant while token held";
    arb.release(2);
    eq.run();
    EXPECT_TRUE(second);
}

TEST(TokenArbiter, ReleasePassesToNextInRingOrder)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    std::vector<std::size_t> order;
    arb.request(10, [&] { order.push_back(10); });
    eq.run();
    ASSERT_EQ(order.size(), 1u);
    // 30 and 20 both wait; from position 10 the token reaches 20 first.
    arb.request(30, [&] {
        order.push_back(30);
        arb.release(30);
    });
    arb.request(20, [&] {
        order.push_back(20);
        arb.release(20);
    });
    arb.release(10);
    eq.run();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[1], 20u);
    EXPECT_EQ(order[2], 30u);
}

TEST(TokenArbiter, SelfReacquisitionRequiresFullRevolution)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    arb.request(7, [&] {});
    eq.run();
    arb.release(7);
    const Tick released = eq.now();
    Tick regranted = 0;
    arb.request(7, [&] { regranted = eq.now(); });
    eq.run();
    EXPECT_EQ(regranted - released, kLoop)
        << "detectors must not re-divert a self-injected token";
}

TEST(TokenArbiter, ContendedTransferIsShortHop)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    Tick t_grant_5 = 0;
    arb.request(4, [&] {});
    eq.run();
    arb.request(5, [&] { t_grant_5 = eq.now(); });
    const Tick released = eq.now();
    arb.release(4);
    eq.run();
    // Under contention the token moves sender-to-sender: one hop from
    // cluster 4's injection point to cluster 5's detector.
    EXPECT_EQ(t_grant_5, released + kHop);
}

TEST(TokenArbiter, WaitStatisticsRecorded)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    arb.request(1, [&] {});
    eq.run();
    arb.release(1);
    arb.request(2, [&] {});
    eq.run();
    EXPECT_EQ(arb.grants(), 2u);
    EXPECT_EQ(arb.waitStats().count(), 2u);
    EXPECT_GT(arb.waitStats().mean(), 0.0);
}

TEST(TokenArbiter, LaterRequestRidesThePendingGrantEvent)
{
    // A second request whose token arrival is later than the pending
    // grant's tick must not schedule a second event: the minimum over
    // the waiter set is unchanged, so the newcomer is coalesced into
    // the grant already on the queue — and the winner is still the
    // nearest waiter, at exactly the tick the first schedule chose.
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    Tick granted_near = 0;
    bool far_granted = false;
    arb.request(2, [&] { granted_near = eq.now(); });
    EXPECT_EQ(arb.grantsBatched(), 0u);
    arb.request(5, [&] { far_granted = true; });  // arrival 125 > 50
    arb.request(40, [&] {});                      // arrival 1000 > 50
    EXPECT_EQ(arb.grantsBatched(), 2u)
        << "both later requests must coalesce into the pending grant";
    eq.run();
    EXPECT_EQ(granted_near, 2 * kHop)
        << "batching must not change the winning waiter or its tick";
    EXPECT_FALSE(far_granted);
    EXPECT_EQ(arb.grants(), 1u);

    // Releases re-resolve: every coalesced waiter is eventually served.
    arb.release(2);
    eq.run();
    arb.release(5);
    eq.run();
    arb.release(40);
    EXPECT_EQ(arb.grants(), 3u);
    EXPECT_TRUE(far_granted);

    // reset() restores the pristine counters alongside the queue.
    eq.reset();
    arb.reset();
    EXPECT_EQ(arb.grantsBatched(), 0u);
    EXPECT_EQ(arb.grants(), 0u);
}

TEST(TokenArbiter, DuplicateRequestPanics)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    arb.request(9, [] {});
    EXPECT_THROW(arb.request(9, [] {}), sim::PanicError);
}

TEST(TokenArbiter, ReleaseWithoutHolderPanics)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    EXPECT_THROW(arb.release(0), sim::PanicError);
}

TEST(TokenArbiter, RejectsBadConstruction)
{
    EventQueue eq;
    EXPECT_THROW(TokenArbiter(eq, 1, kHop), std::invalid_argument);
    EXPECT_THROW(TokenArbiter(eq, kClusters, 0), std::invalid_argument);
}

// -------------------------------------------------------------------
// Property sweep: fairness and liveness under varying contention.
// -------------------------------------------------------------------

class TokenFairness : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(TokenFairness, EveryContenderGetsEqualService)
{
    const std::size_t contenders = GetParam();
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    const int rounds = 200;
    std::map<std::size_t, int> grants;
    int remaining = static_cast<int>(contenders) * rounds;

    // Each contender continuously re-requests; holds are zero-length.
    std::function<void(std::size_t)> spin = [&](std::size_t cluster) {
        arb.request(cluster, [&, cluster] {
            ++grants[cluster];
            --remaining;
            arb.release(cluster);
            if (remaining > 0)
                spin(cluster);
        });
    };
    for (std::size_t i = 0; i < contenders; ++i)
        spin(i * (kClusters / contenders));
    eq.run();

    // Round-robin ring order: every contender within one grant of the
    // others (mod termination skew).
    int min_grants = rounds * 2, max_grants = 0;
    for (const auto &[cluster, count] : grants) {
        min_grants = std::min(min_grants, count);
        max_grants = std::max(max_grants, count);
    }
    EXPECT_EQ(grants.size(), contenders);
    EXPECT_LE(max_grants - min_grants, static_cast<int>(contenders))
        << "token ring arbitration must be fair";
}

INSTANTIATE_TEST_SUITE_P(Contention, TokenFairness,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

class TokenRandomLoad : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TokenRandomLoad, MutualExclusionAndLivenessUnderRandomTraffic)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    sim::Rng rng(GetParam());
    int inflight = 0;
    int max_inflight = 0;
    int completed = 0;
    const int total = 500;

    std::function<void()> launch = [&] {
        const auto cluster =
            static_cast<topology::ClusterId>(rng.below(kClusters));
        arb.request(cluster, [&, cluster] {
            ++inflight;
            max_inflight = std::max(max_inflight, inflight);
            // Hold the channel for a random message time.
            eq.scheduleIn(rng.below(400) + 200, [&, cluster] {
                --inflight;
                ++completed;
                arb.release(cluster);
            });
        });
    };

    int launched = 0;
    std::function<void()> pump = [&] {
        if (launched >= total)
            return;
        // Avoid duplicate outstanding requests per cluster by pacing:
        // launch one request per 2 loops.
        ++launched;
        launch();
        eq.scheduleIn(2 * kLoop, pump);
    };
    eq.schedule(0, pump);
    eq.run();

    EXPECT_EQ(completed, total) << "liveness: every request completes";
    EXPECT_EQ(max_inflight, 1) << "mutual exclusion violated";
}

INSTANTIATE_TEST_SUITE_P(Seeds, TokenRandomLoad,
                         ::testing::Values(1u, 2u, 3u, 42u));

} // namespace
