/**
 * @file
 * Unit tests for the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <list>
#include <random>
#include <vector>

#include "cache/cache.hh"

namespace {

using namespace corona;
using cache::AccessResult;
using cache::Cache;
using cache::CacheConfig;
using cache::InvalidateResult;
using topology::Addr;

/** The set-associative LRU cache as a list per set, MRU first: the
 * obvious model, kept as the oracle for Cache's flat ways. */
class ListCache
{
  public:
    explicit ListCache(const CacheConfig &config)
        : _config(config),
          _sets(config.capacity_bytes / config.line_bytes /
                config.associativity),
          _data(_sets)
    {
    }

    AccessResult
    access(Addr addr, bool write)
    {
        std::list<Line> &set = setOf(addr);
        const Addr tag = addr / _config.line_bytes;
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == tag) {
                it->dirty = it->dirty || write;
                set.splice(set.begin(), set, it);
                ++hits;
                return AccessResult{true, std::nullopt, std::nullopt};
            }
        }
        ++misses;
        AccessResult result{false, std::nullopt, std::nullopt};
        if (set.size() >= _config.associativity) {
            const Line victim = set.back();
            set.pop_back();
            --resident;
            result.evicted = victim.tag * _config.line_bytes;
            if (victim.dirty) {
                ++writebacks;
                result.writeback = victim.tag * _config.line_bytes;
            }
        }
        set.push_front(Line{tag, write});
        ++resident;
        return result;
    }

    bool
    contains(Addr addr)
    {
        for (const Line &line : setOf(addr)) {
            if (line.tag == addr / _config.line_bytes)
                return true;
        }
        return false;
    }

    InvalidateResult
    invalidateLine(Addr addr)
    {
        std::list<Line> &set = setOf(addr);
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->tag == addr / _config.line_bytes) {
                const bool dirty = it->dirty;
                set.erase(it);
                --resident;
                return InvalidateResult{true, dirty};
            }
        }
        return InvalidateResult{false, false};
    }

    bool
    markDirty(Addr addr)
    {
        for (Line &line : setOf(addr)) {
            if (line.tag == addr / _config.line_bytes) {
                line.dirty = true;
                return true;
            }
        }
        return false;
    }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t writebacks = 0;
    std::size_t resident = 0;

  private:
    struct Line
    {
        Addr tag;
        bool dirty;
    };

    std::list<Line> &
    setOf(Addr addr)
    {
        return _data[(addr / _config.line_bytes) % _sets];
    }

    CacheConfig _config;
    std::uint64_t _sets;
    std::vector<std::list<Line>> _data;
};

TEST(CacheConfig, Table1Geometries)
{
    EXPECT_EQ(cache::l1iConfig().capacity_bytes, 16u * 1024);
    EXPECT_EQ(cache::l1iConfig().associativity, 4u);
    EXPECT_EQ(cache::l1iConfig().line_bytes, 64u);
    EXPECT_EQ(cache::l1dConfig().capacity_bytes, 32u * 1024);
    EXPECT_EQ(cache::l1dConfig().associativity, 4u);
    EXPECT_EQ(cache::l1dConfig().line_bytes, 64u);
    EXPECT_EQ(cache::l2Config().capacity_bytes, 4ull << 20);
    EXPECT_EQ(cache::l2Config().associativity, 16u);
    EXPECT_EQ(cache::l2Config().line_bytes, 64u);
    EXPECT_EQ(cache::l2SimConfig().capacity_bytes, 256u * 1024);
    EXPECT_EQ(cache::l2SimConfig().line_bytes, 64u);
}

TEST(Cache, MissThenHit)
{
    Cache c(cache::l1dConfig());
    const auto first = c.access(0x1000, false);
    EXPECT_FALSE(first.hit);
    const auto second = c.access(0x1000, false);
    EXPECT_TRUE(second.hit);
    // Same line, different offset still hits.
    EXPECT_TRUE(c.access(0x1030, false).hit);
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, LruEviction)
{
    // Tiny cache: 4 lines, 2-way, 2 sets.
    Cache c(CacheConfig{256, 2, 64});
    EXPECT_EQ(c.sets(), 2u);
    // Fill set 0 (addresses with even line index).
    c.access(0 * 64, false);
    c.access(2 * 64, false);
    // Touch the first to make the second LRU.
    EXPECT_TRUE(c.access(0 * 64, false).hit);
    // A third line in set 0 evicts line 2 (LRU).
    c.access(4 * 64, false);
    EXPECT_TRUE(c.contains(0 * 64));
    EXPECT_FALSE(c.contains(2 * 64));
    EXPECT_TRUE(c.contains(4 * 64));
}

TEST(Cache, DirtyEvictionProducesWriteback)
{
    Cache c(CacheConfig{128, 1, 64}); // Direct-mapped, 2 sets.
    c.access(0 * 64, true);           // Dirty in set 0.
    const auto result = c.access(2 * 64, false); // Set 0 again.
    ASSERT_TRUE(result.writeback.has_value());
    EXPECT_EQ(*result.writeback, 0u);
    EXPECT_EQ(c.writebacks(), 1u);
    // Clean eviction has no writeback.
    const auto clean = c.access(4 * 64, false);
    EXPECT_FALSE(clean.writeback.has_value());
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c;
    c.access(0x4000, true);
    EXPECT_TRUE(c.contains(0x4000));
    EXPECT_TRUE(c.invalidate(0x4000));
    EXPECT_FALSE(c.contains(0x4000));
    EXPECT_FALSE(c.invalidate(0x4000));
    // A re-access misses (no stale hit after invalidation).
    EXPECT_FALSE(c.access(0x4000, false).hit);
}

TEST(Cache, ResidencyTracksCapacity)
{
    Cache c(CacheConfig{1024, 4, 64}); // 16 lines.
    for (topology::Addr a = 0; a < 64; ++a)
        c.access(a * 64, false);
    EXPECT_LE(c.residentLines(), 16u);
    EXPECT_EQ(c.residentLines(), 16u);
}

TEST(Cache, MissRateOnStreamingScan)
{
    Cache c(cache::l2SimConfig());
    // One pass over 4x the capacity: all misses.
    const std::uint64_t lines = 4 * 256 * 1024 / 64;
    for (std::uint64_t i = 0; i < lines; ++i)
        c.access(i * 64, false);
    EXPECT_DOUBLE_EQ(c.missRate(), 1.0);
    // A second pass over a small working set: all hits.
    for (int pass = 0; pass < 10; ++pass) {
        for (std::uint64_t i = 0; i < 100; ++i)
            c.access(0x80000000 + i * 64, false);
    }
    EXPECT_LT(c.missRate(), 1.0);
}

TEST(Cache, ProbeDoesNotDisturbLru)
{
    Cache c(CacheConfig{128, 2, 64}); // 1 set, 2 ways.
    c.access(0 * 64, false);
    c.access(64, false);
    // Probing line 0 must not refresh it.
    EXPECT_TRUE(c.contains(0));
    c.access(2 * 64, false); // Evicts line 0 (LRU despite the probe).
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, MatchesListLruOnRandomOperations)
{
    const CacheConfig geometries[] = {
        {1024, 1, 64},      // Direct-mapped, 16 sets.
        {512, 8, 64},       // One set of 8 ways.
        {4096, 4, 64},      // 4-way, 16 sets.
        {16 * 1024, 16, 64} // 16-way, 16 sets.
    };
    for (const CacheConfig &config : geometries) {
        SCOPED_TRACE(::testing::Message() << config.associativity << "-way");
        Cache flat(config);
        ListCache oracle(config);
        std::mt19937_64 rng(config.associativity);
        // Three lines per way and set in play, so sets fill and evict.
        const std::uint64_t lines =
            3 * config.capacity_bytes / config.line_bytes;
        for (int op = 0; op < 20000; ++op) {
            const Addr addr = (rng() % lines) * config.line_bytes +
                              rng() % config.line_bytes;
            switch (rng() % 8) {
              case 0: {
                const InvalidateResult a = flat.invalidateLine(addr);
                const InvalidateResult b = oracle.invalidateLine(addr);
                ASSERT_EQ(a.present, b.present) << op;
                ASSERT_EQ(a.dirty, b.dirty) << op;
                break;
              }
              case 1:
                ASSERT_EQ(flat.markDirty(addr), oracle.markDirty(addr)) << op;
                break;
              case 2:
                ASSERT_EQ(flat.contains(addr), oracle.contains(addr)) << op;
                break;
              default: {
                const bool write = rng() % 3 == 0;
                const AccessResult a = flat.access(addr, write);
                const AccessResult b = oracle.access(addr, write);
                ASSERT_EQ(a.hit, b.hit) << op;
                ASSERT_EQ(a.evicted, b.evicted) << op;
                ASSERT_EQ(a.writeback, b.writeback) << op;
                break;
              }
            }
            ASSERT_EQ(flat.residentLines(), oracle.resident) << op;
        }
        EXPECT_EQ(flat.hits(), oracle.hits);
        EXPECT_EQ(flat.misses(), oracle.misses);
        EXPECT_EQ(flat.writebacks(), oracle.writebacks);
        EXPECT_GT(flat.writebacks(), 0u);
        EXPECT_GT(flat.hits(), 0u);

        // A reset cache is cold.
        flat.reset();
        EXPECT_EQ(flat.residentLines(), 0u);
        EXPECT_EQ(flat.hits() + flat.misses() + flat.writebacks(), 0u);
        EXPECT_FALSE(flat.access(0, false).hit);
    }
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(CacheConfig{0, 4, 64}), std::invalid_argument);
    EXPECT_THROW(Cache(CacheConfig{1024, 0, 64}), std::invalid_argument);
    // 1024 B / 64 B = 16 lines; 5 ways does not divide.
    EXPECT_THROW(Cache(CacheConfig{1024, 5, 64}), std::invalid_argument);
}

} // namespace
