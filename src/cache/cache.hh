/**
 * @file
 * Set-associative cache model.
 *
 * Geometry follows Table 1 (16 KB/4-way L1I, 32 KB/4-way L1D, 4 MB/16-way
 * shared L2, 64 B lines; the evaluation scales L2 to 256 KB to match the
 * simulated working sets). The model is functional — hit/miss/evict with
 * true LRU — and is used by the coherence peers and the miss-stream
 * example; timing belongs to the network/memory models.
 */

#ifndef CORONA_CACHE_CACHE_HH
#define CORONA_CACHE_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "stats/stats.hh"
#include "topology/address_map.hh"

namespace corona::cache {

/** Cache geometry. */
struct CacheConfig
{
    std::uint64_t capacity_bytes = 256 * 1024; ///< Evaluation-scaled L2.
    std::uint32_t associativity = 16;
    std::uint32_t line_bytes = 64;
};

/** Table 1 geometries. */
CacheConfig l1iConfig();
CacheConfig l1dConfig();
CacheConfig l2Config();          ///< 4 MB/16-way (architected).
CacheConfig l2SimConfig();       ///< 256 KB/16-way (evaluation, Section 4).

/** Outcome of a cache access. */
struct AccessResult
{
    bool hit;
    /** Dirty line evicted to make room (when allocating on a miss). */
    std::optional<topology::Addr> writeback;
    /** Any line evicted to make room, clean or dirty. The coherent
     * front end uses this to keep directory residency in sync. */
    std::optional<topology::Addr> evicted;
};

/** Outcome of an invalidation probe. */
struct InvalidateResult
{
    bool present = false;
    bool dirty = false;
};

/**
 * A set-associative, write-back, write-allocate cache with true LRU.
 *
 * Storage is one array of 8-byte ways, `associativity` consecutive
 * ways per set, plus a fill count per set. A set's filled ways are
 * ordered MRU first: a hit rotates its way to the front, a miss shifts
 * the set down and inserts at the front (the last way is the victim
 * when the set is full), and an invalidation closes the gap. Each way
 * holds the line number shifted left by one with the dirty bit below
 * it. Only the filled ways are scanned: sets in the coherent workloads
 * hold a handful of lines, where shifting them costs less than keeping
 * LRU stamps and scanning every way.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config = {});

    /**
     * Access @p addr; on a miss the line is allocated and the LRU victim
     * (if dirty) is reported as a writeback.
     * @param write True to mark the line dirty.
     */
    AccessResult access(topology::Addr addr, bool write);

    /** Probe without disturbing LRU or allocating. */
    bool contains(topology::Addr addr) const;

    /** Invalidate a line (coherence); @return true if it was present. */
    bool invalidate(topology::Addr addr);

    /** Invalidate a line, reporting whether it was present and dirty
     * (the hierarchy turns a dirty back-invalidation into a
     * writeback). */
    InvalidateResult invalidateLine(topology::Addr addr);

    /** Mark a resident line dirty without disturbing LRU order (a
     * dirty L1 victim written back into the L2). @return false when
     * the line is not resident. */
    bool markDirty(topology::Addr addr);

    /** Number of lines currently resident. */
    std::size_t residentLines() const { return _resident; }

    const CacheConfig &config() const { return _config; }
    std::uint64_t sets() const { return _sets; }

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }
    std::uint64_t writebacks() const { return _writebacks.value(); }

    double
    missRate() const
    {
        const auto total = hits() + misses();
        return total ? static_cast<double>(misses()) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** Invalidate every line and zero the statistics (cold cache). */
    void
    reset()
    {
        std::fill(_fill.begin(), _fill.end(), 0);
        _resident = 0;
        _hits.reset();
        _misses.reset();
        _writebacks.reset();
    }

  private:
    /** A way: line number << 1 | dirty. */
    using Way = std::uint64_t;

    /** Set index of a line number. */
    std::uint64_t setOf(topology::Addr line) const { return line % _sets; }

    /** First way of set @p set. */
    Way *
    waysOf(std::uint64_t set)
    {
        return _ways.data() + set * _config.associativity;
    }

    /** Position of @p line among @p set's filled ways, or its fill
     * count when absent. */
    std::uint32_t find(std::uint64_t set, topology::Addr line) const;

    /** Remove the way at @p pos of @p set, closing the gap. */
    void remove(std::uint64_t set, std::uint32_t pos);

    CacheConfig _config;
    std::uint64_t _sets;
    /** _sets x associativity ways. */
    std::vector<Way> _ways;
    /** Filled ways per set. */
    std::vector<std::uint32_t> _fill;
    std::size_t _resident = 0;

    stats::Counter _hits;
    stats::Counter _misses;
    stats::Counter _writebacks;
};

} // namespace corona::cache

#endif // CORONA_CACHE_CACHE_HH
