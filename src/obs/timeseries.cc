#include "obs/timeseries.hh"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/registry.hh"
#include "obs/varint.hh"
#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace corona::obs {

const char timeSeriesMagic[8] = {'C', 'R', 'N', 'T', 'S', 'B', '1',
                                 '\n'};

static_assert(sizeof(sim::Tick) == 8, "binary format assumes u64 ticks");
static_assert(sizeof(double) == 8, "binary format assumes f64 values");

namespace {

std::uint64_t
readU64(std::istream &is, const std::string &what)
{
    std::uint64_t value = 0;
    is.read(reinterpret_cast<char *>(&value), sizeof(value));
    if (!is)
        sim::fatal(what + ": truncated binary time series");
    return value;
}

char *
putU64(char *at, std::uint64_t value)
{
    std::memcpy(at, &value, sizeof(value));
    return at + sizeof(value);
}

/** True when @p value round-trips bit-for-bit through int64. */
bool
packsAsInteger(double value, std::int64_t &integer)
{
    if (!(value >= -9'223'372'036'854'775'808.0 &&
          value < 9'223'372'036'854'775'808.0))
        return false; // NaN and infinities land here too.
    integer = static_cast<std::int64_t>(value);
    return std::bit_cast<std::uint64_t>(
               static_cast<double>(integer)) ==
           std::bit_cast<std::uint64_t>(value);
}

} // namespace

TimeSeriesData
readTimeSeriesBinary(std::istream &is, const std::string &what)
{
    char magic[8] = {};
    is.read(magic, sizeof(magic));
    if (!is || !std::equal(magic, magic + sizeof(magic),
                           timeSeriesMagic))
        sim::fatal(what + ": not a binary time series (bad magic)");

    TimeSeriesData data;
    data.period = readU64(is, what);
    const std::uint64_t probes = readU64(is, what);
    const std::uint64_t rows = readU64(is, what);
    if (probes > 10'000'000 || rows > 1'000'000'000 ||
        (probes != 0 &&
         rows > std::numeric_limits<std::size_t>::max() / 8 / probes))
        sim::fatal(what + ": implausible binary time-series shape");

    // An entry is two varints no larger than maxProbePathBytes (two
    // bytes each) and at most that many suffix bytes.
    const std::uint64_t path_bytes = readU64(is, what);
    if (path_bytes > probes * (4 + maxProbePathBytes))
        sim::fatal(what + ": implausible probe path table size");
    if (path_bytes > bytesLeft(is))
        sim::fatal(what + ": truncated probe path table");
    // Each path entry is at least its two varints.
    if (probes > path_bytes / 2)
        sim::fatal(what + ": corrupt probe path table");
    std::string path_blob(path_bytes, '\0');
    is.read(path_blob.data(),
            static_cast<std::streamsize>(path_bytes));
    if (!is)
        sim::fatal(what + ": truncated probe path table");
    data.paths.reserve(probes);
    {
        const char *at = path_blob.data();
        const char *end = at + path_blob.size();
        // Capping each decoded path, not just each suffix, keeps the
        // table linear in the file: otherwise 4-byte entries could
        // each copy one ever-longer path.
        std::string prev;
        for (std::uint64_t p = 0; p < probes; ++p) {
            std::uint64_t shared = 0, suffix = 0;
            if (!readVarint(at, end, shared) ||
                !readVarint(at, end, suffix) || shared > prev.size() ||
                suffix > maxProbePathBytes - shared ||
                suffix > static_cast<std::uint64_t>(end - at))
                sim::fatal(what + ": corrupt probe path table");
            prev.resize(shared);
            prev.append(at, suffix);
            at += suffix;
            data.paths.push_back(prev);
        }
        if (at != end)
            sim::fatal(what + ": corrupt probe path table");
    }

    if (rows > bytesLeft(is) / sizeof(sim::Tick))
        sim::fatal(what + ": truncated tick column");
    data.ticks.resize(rows);
    is.read(reinterpret_cast<char *>(data.ticks.data()),
            static_cast<std::streamsize>(rows * sizeof(sim::Tick)));
    if (!is)
        sim::fatal(what + ": truncated tick column");

    // A row is at most a mask byte per 8 probes plus 9 bytes per cell,
    // so anything past 10 bytes x rows x probes is corrupt (divisions,
    // not products, so huge claimed sizes can't overflow the check).
    const std::uint64_t value_bytes = readU64(is, what);
    if (probes == 0 ? value_bytes != 0
                    : value_bytes / 10 / probes > rows)
        sim::fatal(what + ": implausible value block size");
    // ...and every cell takes at least one byte, which bounds the
    // value column reserved below.
    if (value_bytes > bytesLeft(is) ||
        (probes != 0 && rows > value_bytes / probes))
        sim::fatal(what + ": truncated sample block");
    std::string value_blob(value_bytes, '\0');
    is.read(value_blob.data(),
            static_cast<std::streamsize>(value_bytes));
    if (!is)
        sim::fatal(what + ": truncated sample block");
    data.values.reserve(rows * probes);
    const char *at = value_blob.data();
    const char *end = at + value_blob.size();
    const std::size_t mask_bytes = (probes + 7) / 8;
    for (std::uint64_t row = 0; row < rows; ++row) {
        if (static_cast<std::uint64_t>(end - at) < mask_bytes)
            sim::fatal(what + ": truncated sample block");
        const char *mask = at;
        at += mask_bytes;
        for (std::uint64_t p = 0; p < probes; ++p) {
            if (mask[p / 8] & static_cast<char>(1u << (p % 8))) {
                std::uint64_t packed = 0;
                if (!readVarint(at, end, packed))
                    sim::fatal(what + ": truncated sample block");
                data.values.push_back(
                    static_cast<double>(unzigzag(packed)));
            } else {
                if (end - at < 8)
                    sim::fatal(what + ": truncated sample block");
                double value;
                std::memcpy(&value, at, sizeof(value));
                at += sizeof(value);
                data.values.push_back(value);
            }
        }
    }
    if (at != end)
        sim::fatal(what + ": trailing bytes after sample block");
    return data;
}

void
writeTimeSeriesCsv(std::ostream &os, const TimeSeriesData &data)
{
    os << "tick";
    for (const std::string &path : data.paths)
        os << ',' << path;
    os << '\n';
    const std::size_t probes = data.paths.size();
    for (std::size_t row = 0; row < data.rows(); ++row) {
        os << data.ticks[row];
        const double *cells = data.values.data() + row * probes;
        for (std::size_t p = 0; p < probes; ++p)
            os << ',' << formatValue(cells[p]);
        os << '\n';
    }
}

TimeSeriesSampler::TimeSeriesSampler(const Registry &registry,
                                     sim::EventQueue &eq, sim::Tick period)
    : _registry(registry), _eq(eq), _period(period)
{
    if (period == 0)
        sim::fatal("obs::TimeSeriesSampler: sample period must be > 0");
}

void
TimeSeriesSampler::prepare()
{
    // Resolve once: the per-sample loop touches only this flat table
    // (one indirect call per probe), never the registry. A registry's
    // probe set is fixed after instrumentation (a context's config
    // never changes), so a sampler restarted across pooled leases
    // keeps the table from its first start.
    const std::vector<Probe> &probes = _registry.probes();
    if (_resolved.size() != probes.size()) {
        _probeCount = probes.size();
        _resolved.clear();
        _resolved.reserve(_probeCount);
        for (const Probe &probe : probes)
            _resolved.push_back(&probe.read);
    }
    // clear(), not fresh vectors: a sampler cached in a context's
    // ObsScratch restarts with its capacity from earlier leases, so
    // steady-state sampling allocates nothing.
    _ticks.clear();
    _values.clear();
    _ticks.reserve(8);
    _values.reserve(8 * _probeCount);
}

void
TimeSeriesSampler::start()
{
    prepare();
    sample();
    scheduleNext();
}

void
TimeSeriesSampler::startExternal()
{
    prepare();
    record(0);
}

void
TimeSeriesSampler::sampleTick(sim::Tick tick)
{
    record(tick);
}

void
TimeSeriesSampler::record(sim::Tick tick)
{
    _ticks.push_back(tick);
    const std::size_t at = _values.size();
    _values.resize(at + _probeCount);
    double *row = _values.data() + at;
    for (std::size_t p = 0; p < _probeCount; ++p)
        row[p] = (*_resolved[p])();
}

void
TimeSeriesSampler::sample()
{
    record(_eq.now());
}

void
TimeSeriesSampler::scheduleNext()
{
    _eq.scheduleIn(_period, [this] {
        sample();
        // Our own event is already popped: an empty queue here means the
        // simulation proper has drained and this was the closing sample.
        // Rescheduling would keep the run alive forever.
        if (!_eq.empty())
            scheduleNext();
    });
}

/*
 * On-disk layout after the magic: u64 period, u64 probes, u64 rows,
 * u64 path-blob bytes, the front-coded path table, the raw tick
 * column (rows x u64), u64 value-blob bytes, the packed value block.
 *
 * The path table front-codes registration order — per path a varint
 * prefix length shared with the previous path and a varint suffix —
 * because sibling probes ("xbar/ch/12/messages", "xbar/ch/12/bytes")
 * share almost everything. The value block packs each row as a bitmap
 * (bit p set: probe p's double is exactly an integer and stored as a
 * zigzag varint; clear: stored as the raw 8 little-endian bytes).
 * Probe values are overwhelmingly counters and depths, so most cells
 * shrink from 8 bytes to 1-3. Both encodings are lossless — bit-for-bit
 * round trips, including -0.0 and non-finite values, which take the
 * raw path — so the CSV exported from the file is byte-identical to
 * the CSV the sampler would have written directly.
 *
 * Assembly is one worst-case resize then raw pointer stores, trimmed
 * at the end: this runs once per observed run, and byte-at-a-time
 * string appends were a visible share of the per-run overhead.
 */
void
TimeSeriesSampler::appendBinary(std::string &out) const
{
    const std::vector<Probe> &probes = _registry.probes();
    const std::size_t rows = _ticks.size();
    const std::size_t mask_bytes = (_probeCount + 7) / 8;
    std::size_t path_cap = 0;
    for (std::size_t p = 0; p < _probeCount; ++p)
        path_cap += probes[p].path.size() + 20;
    const std::size_t base = out.size();
    out.resize(base + sizeof(timeSeriesMagic) + 5 * 8 + path_cap +
               rows * sizeof(sim::Tick) +
               (_probeCount ? rows * (mask_bytes + 10 * _probeCount)
                            : 0));
    char *at = out.data() + base;
    std::memcpy(at, timeSeriesMagic, sizeof(timeSeriesMagic));
    at += sizeof(timeSeriesMagic);
    at = putU64(at, _period);
    at = putU64(at, _probeCount);
    at = putU64(at, rows);

    char *path_size = at;
    at += 8;
    const std::string *prev = nullptr;
    for (std::size_t p = 0; p < _probeCount; ++p) {
        const std::string &path = probes[p].path;
        std::size_t shared = 0;
        if (prev) {
            const std::size_t limit =
                std::min(prev->size(), path.size());
            while (shared < limit && (*prev)[shared] == path[shared])
                ++shared;
        }
        at = putVarint(at, shared);
        at = putVarint(at, path.size() - shared);
        std::memcpy(at, path.data() + shared, path.size() - shared);
        at += path.size() - shared;
        prev = &path;
    }
    putU64(path_size, static_cast<std::uint64_t>(at - path_size - 8));

    std::memcpy(at, _ticks.data(), rows * sizeof(sim::Tick));
    at += rows * sizeof(sim::Tick);

    char *value_size = at;
    at += 8;
    for (std::size_t row = 0; row < rows; ++row) {
        char *mask = at;
        std::memset(mask, 0, mask_bytes);
        at += mask_bytes;
        const double *cell = _values.data() + row * _probeCount;
        for (std::size_t p = 0; p < _probeCount; ++p) {
            std::int64_t integer = 0;
            if (packsAsInteger(cell[p], integer)) {
                mask[p / 8] |= static_cast<char>(1u << (p % 8));
                at = putZigzag(at, integer);
            } else {
                std::memcpy(at, &cell[p], sizeof(double));
                at += sizeof(double);
            }
        }
    }
    putU64(value_size, static_cast<std::uint64_t>(at - value_size - 8));
    out.resize(static_cast<std::size_t>(at - out.data()));
}

} // namespace corona::obs
