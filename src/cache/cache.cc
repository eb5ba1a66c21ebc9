#include "cache/cache.hh"

#include <stdexcept>

namespace corona::cache {

CacheConfig
l1iConfig()
{
    return CacheConfig{16 * 1024, 4, 64};
}

CacheConfig
l1dConfig()
{
    return CacheConfig{32 * 1024, 4, 64};
}

CacheConfig
l2Config()
{
    return CacheConfig{4ull << 20, 16, 64};
}

CacheConfig
l2SimConfig()
{
    return CacheConfig{256 * 1024, 16, 64};
}

Cache::Cache(const CacheConfig &config)
    : _config(config)
{
    if (config.capacity_bytes == 0 || config.associativity == 0 ||
        config.line_bytes == 0) {
        throw std::invalid_argument("Cache: bad geometry");
    }
    const std::uint64_t lines = config.capacity_bytes / config.line_bytes;
    if (lines % config.associativity != 0)
        throw std::invalid_argument("Cache: capacity/assoc mismatch");
    _sets = lines / config.associativity;
    _ways.resize(lines);
    _fill.resize(_sets);
}

std::uint32_t
Cache::find(std::uint64_t set, topology::Addr line) const
{
    const Way *ways = _ways.data() + set * _config.associativity;
    const std::uint32_t fill = _fill[set];
    std::uint32_t pos = 0;
    while (pos < fill && (ways[pos] >> 1) != line)
        ++pos;
    return pos;
}

void
Cache::remove(std::uint64_t set, std::uint32_t pos)
{
    Way *ways = waysOf(set);
    std::copy(ways + pos + 1, ways + _fill[set], ways + pos);
    --_fill[set];
    --_resident;
}

AccessResult
Cache::access(topology::Addr addr, bool write)
{
    const topology::Addr line = addr / _config.line_bytes;
    const std::uint64_t set = setOf(line);
    Way *ways = waysOf(set);
    std::uint32_t &fill = _fill[set];

    const std::uint32_t pos = find(set, line);
    if (pos < fill) {
        // Move to MRU.
        const Way way = ways[pos] | Way{write};
        std::copy_backward(ways, ways + pos, ways + pos + 1);
        ways[0] = way;
        _hits.increment();
        return AccessResult{true, std::nullopt, std::nullopt};
    }

    _misses.increment();
    AccessResult result{false, std::nullopt, std::nullopt};
    if (fill == _config.associativity) {
        const Way victim = ways[fill - 1];
        remove(set, fill - 1);
        result.evicted = (victim >> 1) * _config.line_bytes;
        if (victim & 1) {
            _writebacks.increment();
            result.writeback = result.evicted;
        }
    }
    std::copy_backward(ways, ways + fill, ways + fill + 1);
    ways[0] = (line << 1) | Way{write};
    ++fill;
    ++_resident;
    return result;
}

bool
Cache::contains(topology::Addr addr) const
{
    const topology::Addr line = addr / _config.line_bytes;
    const std::uint64_t set = setOf(line);
    return find(set, line) < _fill[set];
}

bool
Cache::invalidate(topology::Addr addr)
{
    return invalidateLine(addr).present;
}

InvalidateResult
Cache::invalidateLine(topology::Addr addr)
{
    const topology::Addr line = addr / _config.line_bytes;
    const std::uint64_t set = setOf(line);
    const std::uint32_t pos = find(set, line);
    if (pos == _fill[set])
        return InvalidateResult{false, false};
    const bool dirty = waysOf(set)[pos] & 1;
    remove(set, pos);
    return InvalidateResult{true, dirty};
}

bool
Cache::markDirty(topology::Addr addr)
{
    const topology::Addr line = addr / _config.line_bytes;
    const std::uint64_t set = setOf(line);
    const std::uint32_t pos = find(set, line);
    if (pos == _fill[set])
        return false;
    waysOf(set)[pos] |= 1;
    return true;
}

} // namespace corona::cache
