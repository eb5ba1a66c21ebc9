/**
 * @file
 * LEB128 varint packing and the input bound shared by the binary
 * observability formats (src/obs/timeseries.cc, src/obs/trace.cc).
 * Internal detail header — the on-disk formats are documented at
 * their writers.
 *
 * Encoding is the usual little-endian base-128: seven payload bits per
 * byte, high bit set on every byte but the last. Signed quantities go
 * through zigzag first so small negative deltas stay short. Both
 * directions are pure integer arithmetic — the bytes are deterministic
 * on every host.
 */

#ifndef CORONA_OBS_VARINT_HH
#define CORONA_OBS_VARINT_HH

#include <cstdint>
#include <istream>

namespace corona::obs {

/**
 * Encode @p value at @p at (the caller guarantees >= 10 bytes of
 * room — the writers size their buffers by worst case and trim once
 * at the end, which keeps the per-event hot loop free of bounds
 * checks and reallocation). Returns one past the last byte written.
 */
inline char *
putVarint(char *at, std::uint64_t value)
{
    while (value >= 0x80) {
        *at++ = static_cast<char>(0x80 | (value & 0x7f));
        value >>= 7;
    }
    *at++ = static_cast<char>(value);
    return at;
}

inline std::uint64_t
zigzag(std::int64_t value)
{
    return (static_cast<std::uint64_t>(value) << 1) ^
           static_cast<std::uint64_t>(value >> 63);
}

inline std::int64_t
unzigzag(std::uint64_t value)
{
    return static_cast<std::int64_t>(value >> 1) ^
           -static_cast<std::int64_t>(value & 1);
}

inline char *
putZigzag(char *at, std::int64_t value)
{
    return putVarint(at, zigzag(value));
}

/**
 * Decode one varint from [at, end). Returns false on truncation or on
 * an encoding longer than the 10 bytes a u64 can need (a corrupt
 * stream must not spin the cursor forever).
 */
inline bool
readVarint(const char *&at, const char *end, std::uint64_t &value)
{
    value = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        if (at == end)
            return false;
        const auto byte = static_cast<std::uint8_t>(*at++);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0)
            return true;
    }
    return false;
}

/**
 * Bytes between @p is's read position and its end (0 when the stream
 * cannot seek). Readers check every declared size against this before
 * allocating for it, so a forged length field fails as truncation
 * instead of sizing an allocation beyond the file.
 */
inline std::uint64_t
bytesLeft(std::istream &is)
{
    const std::istream::pos_type here = is.tellg();
    if (here < 0)
        return 0;
    is.seekg(0, std::ios::end);
    const std::istream::pos_type end = is.tellg();
    is.seekg(here);
    return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

} // namespace corona::obs

#endif // CORONA_OBS_VARINT_HH
