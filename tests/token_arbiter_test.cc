/**
 * @file
 * Unit and property tests for the optical token-ring arbiter
 * (Section 3.2.3): bounded uncontested wait, ring-order round-robin
 * grants, fairness under sustained contention, mutual exclusion.
 */

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <optional>
#include <tuple>
#include <vector>

#include "alloc_counter.hh"
#include "sim/event_queue.hh"
#include "sim/inline_function.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "stats/stats.hh"
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

/**
 * Runs a per-request callback on each grant: the arbiter calls one
 * handler with the granted cluster, and this routes it to whatever
 * the cluster's request asked for.
 */
class GrantRouter
{
  public:
    explicit GrantRouter(TokenArbiter &arb) : _arb(arb)
    {
        arb.onGrant([this](topology::ClusterId cluster) {
            std::function<void()> fn = std::move(_pending.at(cluster));
            _pending.erase(cluster);
            fn();
        });
    }

    void
    request(topology::ClusterId cluster, std::function<void()> fn)
    {
        _arb.request(cluster);
        _pending[cluster] = std::move(fn);
    }

  private:
    TokenArbiter &_arb;
    std::map<topology::ClusterId, std::function<void()>> _pending;
};

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
        GrantRouter grants(arb);
        Tick granted = 0;
        bool got = false;
        grants.request(requester, [&] {
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
    GrantRouter grants(arb);
    // Token starts at cluster 0 at t=0; cluster 5 is 5 hops downstream.
    Tick granted = 0;
    grants.request(5, [&] { granted = eq.now(); });
    eq.run();
    EXPECT_EQ(granted, 5 * kHop);
}

TEST(TokenArbiter, HolderExcludesOthersUntilRelease)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    GrantRouter grants(arb);
    bool second = false;
    grants.request(2, [&] {});
    eq.run();
    EXPECT_TRUE(arb.held());
    grants.request(3, [&] { second = true; });
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
    GrantRouter grants(arb);
    std::vector<std::size_t> order;
    grants.request(10, [&] { order.push_back(10); });
    eq.run();
    ASSERT_EQ(order.size(), 1u);
    // 30 and 20 both wait; from position 10 the token reaches 20 first.
    grants.request(30, [&] {
        order.push_back(30);
        arb.release(30);
    });
    grants.request(20, [&] {
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
    GrantRouter grants(arb);
    grants.request(7, [&] {});
    eq.run();
    arb.release(7);
    const Tick released = eq.now();
    Tick regranted = 0;
    grants.request(7, [&] { regranted = eq.now(); });
    eq.run();
    EXPECT_EQ(regranted - released, kLoop)
        << "detectors must not re-divert a self-injected token";
}

TEST(TokenArbiter, ContendedTransferIsShortHop)
{
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    GrantRouter grants(arb);
    Tick t_grant_5 = 0;
    grants.request(4, [&] {});
    eq.run();
    grants.request(5, [&] { t_grant_5 = eq.now(); });
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
    GrantRouter grants(arb);
    grants.request(1, [&] {});
    eq.run();
    arb.release(1);
    grants.request(2, [&] {});
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
    GrantRouter grants(arb);
    Tick granted_near = 0;
    bool far_granted = false;
    grants.request(2, [&] { granted_near = eq.now(); });
    EXPECT_EQ(arb.grantsBatched(), 0u);
    grants.request(5, [&] { far_granted = true; });  // arrival 125 > 50
    grants.request(40, [&] {});                      // arrival 1000 > 50
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
    GrantRouter grants(arb);
    grants.request(9, [] {});
    EXPECT_THROW(grants.request(9, [] {}), sim::PanicError);
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
    GrantRouter router(arb);
    const int rounds = 200;
    std::map<std::size_t, int> grants;
    int remaining = static_cast<int>(contenders) * rounds;

    // Each contender continuously re-requests; holds are zero-length.
    std::function<void(std::size_t)> spin = [&](std::size_t cluster) {
        router.request(cluster, [&, cluster] {
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
    GrantRouter grants(arb);
    sim::Rng rng(GetParam());
    int inflight = 0;
    int max_inflight = 0;
    int completed = 0;
    const int total = 500;

    std::function<void()> launch = [&] {
        const auto cluster =
            static_cast<topology::ClusterId>(rng.below(kClusters));
        grants.request(cluster, [&, cluster] {
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

// -------------------------------------------------------------------
// Oracle: the arbiter before its waiters became a bitset.
// -------------------------------------------------------------------

/**
 * The waiter-list arbiter the bitset replaced: each waiter carries its
 * request tick in a list, the next grant goes to the minimum
 * free-token arrival over the list, a request whose minimum matches the
 * pending grant's tick rides that event, and the winner is re-resolved
 * when the event fires.
 */
class ReferenceArbiter
{
  public:
    ReferenceArbiter(EventQueue &eq, std::size_t clusters, Tick hop)
        : _eq(eq), _clusters(clusters), _hop(hop)
    {
    }

    void
    onGrant(sim::InlineFunction<void(topology::ClusterId)> grant)
    {
        _grant = std::move(grant);
    }

    void
    request(topology::ClusterId requester)
    {
        for (const Waiter &w : _waiters) {
            if (w.cluster == requester)
                sim::panic("reference: duplicate request");
        }
        _waiters.push_back(Waiter{requester, _eq.now()});
        if (!_held)
            scheduleNextGrant();
    }

    void
    release(topology::ClusterId holder)
    {
        _held = false;
        _origin = holder;
        _departure = _eq.now();
        scheduleNextGrant();
    }

    std::uint64_t grants() const { return _grants; }
    std::uint64_t grantsBatched() const { return _batched; }
    const stats::RunningStats &waitStats() const { return _wait; }

  private:
    struct Waiter
    {
        topology::ClusterId cluster;
        Tick since;
    };

    Tick
    arrival(topology::ClusterId cluster) const
    {
        std::size_t hops = (cluster + _clusters - _origin) % _clusters;
        if (hops == 0)
            hops = _clusters;
        const Tick loop = _hop * _clusters;
        Tick at = _departure + hops * _hop;
        if (at < _eq.now())
            at += (_eq.now() - at + loop - 1) / loop * loop;
        return at;
    }

    void
    scheduleNextGrant()
    {
        if (_held || _waiters.empty())
            return;
        Tick best = arrival(_waiters[0].cluster);
        for (std::size_t i = 1; i < _waiters.size(); ++i)
            best = std::min(best, arrival(_waiters[i].cluster));
        if (_pending && *_pending == best) {
            ++_batched;
            return;
        }
        const std::uint64_t epoch = ++_epoch;
        _pending = best;
        _eq.schedule(best, [this, epoch, best] {
            if (epoch != _epoch || _held)
                return;
            std::size_t winner = _waiters.size();
            for (std::size_t i = 0; i < _waiters.size(); ++i) {
                if (arrival(_waiters[i].cluster) <= _eq.now()) {
                    winner = i;
                    break;
                }
            }
            if (winner == _waiters.size())
                sim::panic("reference: grant with no ready waiter");
            const Waiter w = _waiters[winner];
            _waiters.erase(_waiters.begin() +
                           static_cast<std::ptrdiff_t>(winner));
            _held = true;
            ++_epoch;
            _pending.reset();
            ++_grants;
            _wait.sample(static_cast<double>(best - w.since));
            _grant(w.cluster);
        });
    }

    EventQueue &_eq;
    std::size_t _clusters;
    Tick _hop;
    bool _held = false;
    topology::ClusterId _origin = 0;
    Tick _departure = 0;
    std::vector<Waiter> _waiters;
    std::uint64_t _epoch = 0;
    std::optional<Tick> _pending;
    std::uint64_t _grants = 0;
    std::uint64_t _batched = 0;
    stats::RunningStats _wait;
    sim::InlineFunction<void(topology::ClusterId)> _grant;
};

/**
 * One seeded request/release script on one arbiter: bursts of requests
 * from idle clusters (same-tick ones included) at random gaps, holds of
 * random length (zero included), and holders that request again before
 * or right after they release, so the holder's own position comes up
 * too.
 */
template <typename Arbiter>
class Script
{
  public:
    Script(std::size_t clusters, Tick hop, std::uint64_t seed)
        : _arb(_eq, clusters, hop), _rng(seed), _busy(clusters, false),
          _clusters(clusters), _hop(hop)
    {
        _arb.onGrant([this](topology::ClusterId c) { granted(c); });
    }

    void
    run(int pumps)
    {
        _pumps = pumps;
        _eq.schedule(0, [this] { pump(); });
        _eq.run();
    }

    const Arbiter &arbiter() const { return _arb; }
    const EventQueue &queue() const { return _eq; }
    const std::vector<std::tuple<topology::ClusterId, Tick>> &
    log() const
    {
        return _log;
    }

  private:
    void
    pump()
    {
        if (_pumps-- <= 0)
            return;
        const std::uint64_t burst = _rng.below(3) + 1;
        for (std::uint64_t k = 0; k < burst; ++k) {
            const auto c =
                static_cast<topology::ClusterId>(_rng.below(_clusters));
            if (!_busy[c]) {
                _busy[c] = true;
                _arb.request(c);
            }
        }
        const Tick gap = _rng.below(4) == 0 ? 0 : _rng.below(8 * _hop);
        _eq.scheduleIn(gap, [this] { pump(); });
    }

    void
    granted(topology::ClusterId c)
    {
        _log.emplace_back(c, _eq.now());
        // One holder in four requests again while it holds the token,
        // so its own position is waiting when it releases.
        const bool again = _rng.below(4) == 0;
        if (again)
            _arb.request(c);
        const Tick hold = _rng.below(3) == 0 ? 0 : _rng.below(4 * _hop);
        _eq.scheduleIn(hold, [this, c, again] {
            _arb.release(c);
            if (again)
                return;
            if (_rng.below(4) == 0)
                _arb.request(c);
            else
                _busy[c] = false;
        });
    }

    EventQueue _eq;
    Arbiter _arb;
    sim::Rng _rng;
    std::vector<bool> _busy;
    std::size_t _clusters;
    Tick _hop;
    int _pumps = 0;
    std::vector<std::tuple<topology::ClusterId, Tick>> _log;
};

class TokenOracle
    : public ::testing::TestWithParam<std::tuple<std::size_t, Tick>>
{
};

TEST_P(TokenOracle, GrantsMatchTheWaiterListArbiter)
{
    const auto [clusters, hop] = GetParam();
    std::uint64_t batched = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        SCOPED_TRACE(seed);
        Script<TokenArbiter> bitset(clusters, hop, seed);
        Script<ReferenceArbiter> list(clusters, hop, seed);
        bitset.run(3000);
        list.run(3000);
        EXPECT_EQ(bitset.log(), list.log());
        EXPECT_GT(bitset.arbiter().grants(), 1000u);
        EXPECT_EQ(bitset.arbiter().grants(), list.arbiter().grants());
        EXPECT_EQ(bitset.arbiter().grantsBatched(),
                  list.arbiter().grantsBatched());
        const stats::RunningStats &a = bitset.arbiter().waitStats();
        const stats::RunningStats &b = list.arbiter().waitStats();
        EXPECT_EQ(a.count(), b.count());
        EXPECT_EQ(a.mean(), b.mean());
        EXPECT_EQ(a.variance(), b.variance());
        EXPECT_EQ(a.min(), b.min());
        EXPECT_EQ(a.max(), b.max());
        // Same events: the kernel ran as many, ending at the same tick.
        EXPECT_EQ(bitset.queue().executed(), list.queue().executed());
        EXPECT_EQ(bitset.queue().now(), list.queue().now());
        batched += bitset.arbiter().grantsBatched();
    }
    EXPECT_GT(batched, 0u) << "the scripts must reach the batching path";
}

INSTANTIATE_TEST_SUITE_P(
    Rings, TokenOracle,
    ::testing::Combine(::testing::Values(2u, 3u, 64u, 100u, 256u),
                       ::testing::Values(Tick{25}, Tick{225})));

TEST(TokenArbiter, SteadyRequestsDoNotAllocate)
{
    // All 64 clusters contend without pause: each holds the channel
    // for one clock, releases, and requests again at once.
    EventQueue eq;
    TokenArbiter arb(eq, kClusters, kHop);
    arb.onGrant([&arb, &eq](topology::ClusterId c) {
        eq.scheduleIn(200, [&arb, c] {
            arb.release(c);
            arb.request(c);
        });
    });
    for (topology::ClusterId c = 0; c < kClusters; ++c)
        arb.request(c);
    // The first rounds size the waiter array and the kernel's pool.
    eq.run(100 * kLoop);
    const std::uint64_t warm = arb.grants();
    ASSERT_GT(warm, 2 * kClusters);
    const std::size_t before = test::allocations.load();
    eq.run(1000 * kLoop);
    EXPECT_EQ(test::allocations.load() - before, 0u);
    EXPECT_GT(arb.grants(), 5 * warm);
}

} // namespace
