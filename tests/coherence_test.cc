/**
 * @file
 * Unit and property tests for the MOESI directory protocol: state
 * transitions, message accounting, broadcast-vs-unicast invalidation,
 * and randomized invariant checking (single writer, freshness,
 * directory agreement).
 */

#include <gtest/gtest.h>

#include "coherence/coherent_system.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace {

using namespace corona;
using coherence::CoherenceConfig;
using coherence::CoherenceMsg;
using coherence::CoherentSystem;
using coherence::InvalPolicy;
using coherence::MoesiState;

constexpr topology::Addr kLine = 0x4000;

TEST(Protocol, StatePredicates)
{
    using coherence::canRead;
    using coherence::canWrite;
    using coherence::isDirty;
    EXPECT_TRUE(canRead(MoesiState::Modified));
    EXPECT_TRUE(canRead(MoesiState::Owned));
    EXPECT_TRUE(canRead(MoesiState::Shared));
    EXPECT_FALSE(canRead(MoesiState::Invalid));
    EXPECT_TRUE(canWrite(MoesiState::Modified));
    EXPECT_TRUE(canWrite(MoesiState::Exclusive));
    EXPECT_FALSE(canWrite(MoesiState::Owned));
    EXPECT_FALSE(canWrite(MoesiState::Shared));
    EXPECT_TRUE(isDirty(MoesiState::Modified));
    EXPECT_TRUE(isDirty(MoesiState::Owned));
    EXPECT_FALSE(isDirty(MoesiState::Exclusive));
    EXPECT_EQ(coherence::to_string(MoesiState::Owned), "O");
}

TEST(Coherence, ColdReadGrantsExclusive)
{
    CoherentSystem sys;
    sys.read(3, kLine);
    EXPECT_EQ(sys.peer(3).state(kLine), MoesiState::Exclusive);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::GetS), 1u);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::Data), 1u);
    sys.checkInvariants();
}

TEST(Coherence, SecondReaderDowngradesExclusiveToShared)
{
    CoherentSystem sys;
    sys.read(3, kLine);
    sys.read(5, kLine);
    EXPECT_EQ(sys.peer(3).state(kLine), MoesiState::Shared);
    EXPECT_EQ(sys.peer(5).state(kLine), MoesiState::Shared);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::FwdGetS), 1u);
    sys.checkInvariants();
}

TEST(Coherence, SilentExclusiveToModifiedUpgrade)
{
    CoherentSystem sys;
    sys.read(3, kLine);
    const auto before = sys.totalMessages();
    sys.write(3, kLine);
    EXPECT_EQ(sys.peer(3).state(kLine), MoesiState::Modified);
    EXPECT_EQ(sys.totalMessages(), before) << "E->M must be silent";
    sys.checkInvariants();
}

TEST(Coherence, ReadFromModifiedCreatesOwner)
{
    CoherentSystem sys;
    sys.write(2, kLine);
    sys.read(6, kLine);
    EXPECT_EQ(sys.peer(2).state(kLine), MoesiState::Owned);
    EXPECT_EQ(sys.peer(6).state(kLine), MoesiState::Shared);
    // Owner supplies data; both observe the same version.
    EXPECT_EQ(sys.peer(2).version(kLine), sys.peer(6).version(kLine));
    sys.checkInvariants();
}

TEST(Coherence, WriteInvalidatesAllSharers)
{
    CoherentSystem sys;
    for (std::size_t p = 0; p < 8; ++p)
        sys.read(p, kLine);
    sys.write(0, kLine);
    EXPECT_EQ(sys.peer(0).state(kLine), MoesiState::Modified);
    for (std::size_t p = 1; p < 8; ++p)
        EXPECT_EQ(sys.peer(p).state(kLine), MoesiState::Invalid);
    sys.checkInvariants();
}

TEST(Coherence, WriterSeesLatestVersionChain)
{
    CoherentSystem sys;
    const auto v1 = sys.write(1, kLine);
    const auto v2 = sys.write(2, kLine);
    const auto v3 = sys.write(3, kLine);
    EXPECT_LT(v1, v2);
    EXPECT_LT(v2, v3);
    EXPECT_EQ(sys.read(9, kLine), v3) << "reader must see last write";
    sys.checkInvariants();
}

TEST(Coherence, DirtyEvictionWritesBack)
{
    CoherentSystem sys;
    const auto v = sys.write(4, kLine);
    sys.evict(4, kLine);
    EXPECT_EQ(sys.peer(4).state(kLine), MoesiState::Invalid);
    EXPECT_EQ(sys.memoryVersion(kLine), v);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::PutM), 1u);
    // A later read gets the written-back data from memory.
    EXPECT_EQ(sys.read(8, kLine), v);
    sys.checkInvariants();
}

TEST(Coherence, OwnerEvictionPromotesMemory)
{
    CoherentSystem sys;
    const auto v = sys.write(1, kLine);
    sys.read(2, kLine); // 1 -> O, 2 -> S
    sys.evict(1, kLine);
    EXPECT_EQ(sys.memoryVersion(kLine), v);
    EXPECT_EQ(sys.peer(2).state(kLine), MoesiState::Shared);
    EXPECT_EQ(sys.read(2, kLine), v);
    sys.checkInvariants();
}

TEST(Coherence, CleanEvictionIsCheap)
{
    CoherentSystem sys;
    sys.read(1, kLine);
    sys.evict(1, kLine);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::PutM), 0u);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::PutS), 1u);
    EXPECT_EQ(sys.memoryVersion(kLine), 0u);
    sys.checkInvariants();
}

TEST(Coherence, EvictInvalidIsNoop)
{
    CoherentSystem sys;
    const auto before = sys.totalMessages();
    sys.evict(0, kLine);
    EXPECT_EQ(sys.totalMessages(), before);
}

TEST(Coherence, BroadcastCollapsesInvalidateStorm)
{
    CoherenceConfig bcast_cfg;
    bcast_cfg.policy = InvalPolicy::Broadcast;
    CoherentSystem bcast(bcast_cfg);

    CoherenceConfig uni_cfg;
    uni_cfg.policy = InvalPolicy::Unicast;
    CoherentSystem unicast(uni_cfg);

    // 32 sharers, then one writer.
    for (auto *sys : {&bcast, &unicast}) {
        for (std::size_t p = 1; p <= 32; ++p)
            sys->read(p, kLine);
        sys->write(0, kLine);
        sys->checkInvariants();
    }
    // Unicast: one Inval per sharer. Broadcast: exactly one bus message.
    EXPECT_EQ(unicast.messageCount(CoherenceMsg::Inval), 32u);
    EXPECT_EQ(unicast.messageCount(CoherenceMsg::InvalBcast), 0u);
    EXPECT_EQ(bcast.messageCount(CoherenceMsg::Inval), 0u);
    EXPECT_EQ(bcast.messageCount(CoherenceMsg::InvalBcast), 1u);
    // Acks are unaffected by the transport.
    EXPECT_EQ(bcast.messageCount(CoherenceMsg::InvAck),
              unicast.messageCount(CoherenceMsg::InvAck));
}

TEST(Coherence, BroadcastThresholdRespected)
{
    CoherenceConfig cfg;
    cfg.policy = InvalPolicy::Broadcast;
    cfg.broadcast_threshold = 4;
    CoherentSystem sys(cfg);
    // Two sharers: below threshold, unicast is used.
    sys.read(1, kLine);
    sys.read(2, kLine);
    sys.write(3, kLine);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::Inval), 2u);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::InvalBcast), 0u);
}

TEST(Coherence, BroadcastAtExactThresholdUsesTheBus)
{
    CoherenceConfig cfg;
    cfg.policy = InvalPolicy::Broadcast;
    cfg.broadcast_threshold = 3;
    CoherentSystem sys(cfg);
    // Exactly three sharers: n >= threshold, so one bus message.
    sys.read(1, kLine);
    sys.read(2, kLine);
    sys.read(3, kLine);
    sys.write(4, kLine);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::Inval), 0u);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::InvalBcast), 1u);
    // Every victim still acks individually.
    EXPECT_EQ(sys.messageCount(CoherenceMsg::InvAck), 3u);
    sys.checkInvariants();
}

TEST(Coherence, BroadcastThresholdOneFiresForASingleSharer)
{
    CoherenceConfig cfg;
    cfg.policy = InvalPolicy::Broadcast;
    cfg.broadcast_threshold = 1;
    CoherentSystem sys(cfg);
    // Two readers leave the line Shared by {1, 2} with no owner; the
    // upgrading writer 1 is spared, so exactly one victim remains —
    // still at threshold, so the bus carries it.
    sys.read(1, kLine);
    sys.read(2, kLine);
    sys.write(1, kLine);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::Inval), 0u);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::InvalBcast), 1u);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::InvAck), 1u);
    sys.checkInvariants();
}

TEST(Coherence, BroadcastThresholdZeroNeverUnicastsButNoEmptyBcast)
{
    CoherenceConfig cfg;
    cfg.policy = InvalPolicy::Broadcast;
    cfg.broadcast_threshold = 0;
    CoherentSystem sys(cfg);
    // No sharers to invalidate: a cold write must not emit a bus
    // message even though 0 >= threshold.
    sys.write(5, kLine);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::InvalBcast), 0u);
    // One sharer: broadcast despite the sub-threshold count rule
    // never engaging at threshold zero.
    sys.read(1, kLine);
    sys.write(6, kLine);
    EXPECT_EQ(sys.messageCount(CoherenceMsg::Inval), 0u);
    EXPECT_GE(sys.messageCount(CoherenceMsg::InvalBcast), 1u);
    sys.checkInvariants();
}

TEST(Coherence, RejectsBadPeers)
{
    CoherentSystem sys;
    EXPECT_THROW(sys.read(64, kLine), std::out_of_range);
    EXPECT_THROW(sys.write(64, kLine), std::out_of_range);
    CoherenceConfig bad;
    bad.peers = 0;
    EXPECT_THROW(CoherentSystem{bad}, std::invalid_argument);
    EXPECT_THROW(sys.read(0, kLine, 64), std::out_of_range);
    EXPECT_THROW(sys.evict(0, kLine, 64), std::out_of_range);
}

TEST(Coherence, FirstAccessBindsTheHome)
{
    CoherentSystem sys;
    EXPECT_FALSE(sys.boundHome(kLine));
    sys.bindHome(kLine, 7);
    sys.read(3, kLine, 7);
    EXPECT_EQ(sys.boundHome(kLine), 7u);
    EXPECT_THROW(sys.write(3, kLine, 9), sim::FatalError);
    EXPECT_THROW(sys.bindHome(kLine, 9), sim::FatalError);
    // The implicit overloads use the bound home.
    sys.write(5, kLine);
    EXPECT_EQ(sys.boundHome(kLine), 7u);
    sys.checkInvariants();
    sys.reset();
    EXPECT_FALSE(sys.boundHome(kLine));
}

// -------------------------------------------------------------------
// Property sweep: randomized operation sequences keep all invariants.
// -------------------------------------------------------------------

struct FuzzCase
{
    std::uint64_t seed;
    int operations;
    InvalPolicy policy;
};

class CoherenceFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(CoherenceFuzz, InvariantsHoldUnderRandomOps)
{
    const auto param = GetParam();
    CoherenceConfig cfg;
    cfg.policy = param.policy;
    CoherentSystem sys(cfg);
    sim::Rng rng(param.seed);

    // A small line pool maximizes state-transition coverage.
    const std::vector<topology::Addr> lines = {
        0x0, 0x40, 0x1000, 0x4040, 0x10000, 0x2222240,
    };
    std::unordered_map<topology::Addr, std::uint64_t> last_written;

    for (int i = 0; i < param.operations; ++i) {
        const auto peer = rng.below(64);
        const auto line = lines[rng.below(lines.size())];
        const auto op = rng.below(10);
        if (op < 5) {
            const auto v = sys.read(peer, line);
            // A reader never sees an older version than the last write.
            EXPECT_EQ(v, last_written[line]);
        } else if (op < 9) {
            const auto v = sys.write(peer, line);
            EXPECT_GT(v, last_written[line]);
            last_written[line] = v;
        } else {
            sys.evict(peer, line);
        }
        if (i % 64 == 0)
            sys.checkInvariants();
    }
    sys.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Random, CoherenceFuzz,
    ::testing::Values(FuzzCase{1, 4000, InvalPolicy::Broadcast},
                      FuzzCase{2, 4000, InvalPolicy::Unicast},
                      FuzzCase{3, 8000, InvalPolicy::Broadcast},
                      FuzzCase{4, 8000, InvalPolicy::Unicast},
                      FuzzCase{99, 20000, InvalPolicy::Broadcast}));

} // namespace
