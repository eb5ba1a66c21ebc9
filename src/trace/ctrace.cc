#include "trace/ctrace.hh"

#include <cstring>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>

#include "obs/varint.hh"
#include "sim/logging.hh"
#include "sim/types.hh"

namespace corona::trace {

namespace {

constexpr char kMagic[8] = {'C', 'R', 'N', 'T', 'R', 'C', '1', '\n'};
constexpr char kIndexMagic[4] = {'C', 'I', 'D', 'X'};
constexpr std::uint16_t kVersion = 1;
constexpr std::uint16_t kFlagReferenceStream = 1u << 0;
constexpr std::uint16_t kFlagSyntheticSource = 1u << 1;
constexpr std::uint16_t kKnownFlags =
    kFlagReferenceStream | kFlagSyntheticSource;
constexpr std::uint64_t kHeaderFixedBytes = 50;
constexpr std::uint64_t kFrameHeaderBytes = 12;
constexpr std::uint64_t kIndexEntryBytes = 16;
/** Worst-case encoded record: three 10-byte varints. */
constexpr std::size_t kMaxRecordBytes = 30;

template <typename T>
void
putLE(std::ostream &os, T value)
{
    // The codebase targets little-endian hosts throughout (the obs
    // containers write raw structs); keep that contract.
    os.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

template <typename T>
T
getLE(const char *at)
{
    T value;
    std::memcpy(&value, at, sizeof(value));
    return value;
}

double
derivedOffered(std::uint32_t threads, std::uint64_t records,
               std::uint64_t total_think)
{
    if (records == 0)
        return 0.0;
    const double mean_think = static_cast<double>(total_think) /
                              static_cast<double>(records);
    if (mean_think <= 0)
        return 0.0;
    return static_cast<double>(threads) * 64.0 /
           (mean_think / static_cast<double>(sim::oneSecond));
}

} // namespace

// --------------------------------------------------------------- Writer

Writer::Writer(std::ostream &os, std::uint32_t threads, std::string name,
               WriterOptions options)
    : _os(os), _threads(threads), _options(options)
{
    if (threads == 0 || threads > kMaxThreads)
        sim::fatal("ctrace Writer: need 1.." +
                   std::to_string(kMaxThreads) + " threads, got " +
                   std::to_string(threads));
    if (_options.block_capacity == 0)
        sim::fatal("ctrace Writer: block capacity must be > 0");
    if (name.size() > std::numeric_limits<std::uint16_t>::max())
        sim::fatal("ctrace Writer: source name too long");
    _os.write(kMagic, sizeof(kMagic));
    putLE<std::uint16_t>(_os, kVersion);
    putLE<std::uint16_t>(_os, 0); // Flags, patched by finish().
    putLE<std::uint32_t>(_os, threads);
    putLE<std::uint64_t>(_os, 0); // Record count, patched.
    putLE<std::uint64_t>(_os, 0); // Total think, patched.
    putLE<double>(_os, 0.0);      // Offered, patched.
    putLE<std::uint64_t>(_os, 0); // Index offset, patched (0 = torn).
    putLE<std::uint16_t>(_os, static_cast<std::uint16_t>(name.size()));
    _os.write(name.data(),
              static_cast<std::streamsize>(name.size()));
    _pending.resize(threads);
}

Writer::~Writer()
{
    if (!_finished && _written != 0)
        sim::warn("ctrace Writer destroyed without finish(); the file "
                  "has no index and will not read back");
}

void
Writer::append(const workload::TraceRecord &record)
{
    if (_finished)
        sim::fatal("ctrace Writer: append after finish()");
    if (record.thread >= _threads)
        sim::fatal("ctrace Writer: record thread " +
                   std::to_string(record.thread) + " out of range (" +
                   std::to_string(_threads) + " threads)");
    if (record.think_time >> 63)
        sim::fatal("ctrace Writer: think time too large to encode");
    _pending[record.thread].push_back(record);
    ++_written;
    _totalThink += record.think_time;
    if (_pending[record.thread].size() >= _options.block_capacity)
        flushThread(record.thread);
}

void
Writer::setOffered(double bytes_per_second)
{
    _offered = bytes_per_second;
    _offeredSet = true;
}

void
Writer::flushThread(std::uint32_t thread)
{
    std::vector<workload::TraceRecord> &records = _pending[thread];
    if (records.empty())
        return;
    _encodeBuffer.resize(records.size() * kMaxRecordBytes);
    char *at = _encodeBuffer.data();
    std::uint64_t prev_line = 0;
    std::int64_t prev_home = 0;
    for (const workload::TraceRecord &record : records) {
        at = obs::putVarint(at, (record.think_time << 1) |
                                    (record.write ? 1 : 0));
        at = obs::putZigzag(at, static_cast<std::int64_t>(
                                    record.line - prev_line));
        prev_line = record.line;
        const auto home = static_cast<std::int64_t>(record.home);
        at = obs::putZigzag(at, home - prev_home);
        prev_home = home;
    }
    const auto payload =
        static_cast<std::uint64_t>(at - _encodeBuffer.data());

    BlockRef ref;
    ref.offset = static_cast<std::uint64_t>(_os.tellp());
    ref.thread = thread;
    ref.count = static_cast<std::uint32_t>(records.size());
    _blocks.push_back(ref);

    putLE<std::uint32_t>(_os, thread);
    putLE<std::uint32_t>(_os, ref.count);
    putLE<std::uint32_t>(_os, static_cast<std::uint32_t>(payload));
    _os.write(_encodeBuffer.data(),
              static_cast<std::streamsize>(payload));
    records.clear();
}

void
Writer::finish()
{
    if (_finished)
        sim::fatal("ctrace Writer: finish() called twice");
    for (std::uint32_t thread = 0; thread < _threads; ++thread)
        flushThread(thread);

    const auto index_offset = static_cast<std::uint64_t>(_os.tellp());
    _os.write(kIndexMagic, sizeof(kIndexMagic));
    putLE<std::uint64_t>(_os, static_cast<std::uint64_t>(_blocks.size()));
    for (const BlockRef &block : _blocks) {
        putLE<std::uint32_t>(_os, block.thread);
        putLE<std::uint32_t>(_os, block.count);
        putLE<std::uint64_t>(_os, block.offset);
    }

    std::uint16_t flags = 0;
    if (_options.reference_stream)
        flags |= kFlagReferenceStream;
    if (_options.synthetic_source)
        flags |= kFlagSyntheticSource;
    const double offered =
        _offeredSet ? _offered
                    : derivedOffered(_threads, _written, _totalThink);

    _os.seekp(10);
    putLE<std::uint16_t>(_os, flags);
    putLE<std::uint32_t>(_os, _threads);
    putLE<std::uint64_t>(_os, _written);
    putLE<std::uint64_t>(_os, _totalThink);
    putLE<double>(_os, offered);
    putLE<std::uint64_t>(_os, index_offset);
    _os.seekp(0, std::ios::end);
    _finished = true;
    if (!_os)
        sim::fatal("ctrace Writer: write error (out of space?)");
}

// --------------------------------------------------------------- Reader

void
Reader::die(std::uint64_t offset, const std::string &message) const
{
    sim::fatal("ctrace \"" + _label + "\": offset " +
               std::to_string(offset) + ": " + message);
}

Reader::Reader(std::istream &is, std::string label)
    : _is(is), _label(std::move(label))
{
    _is.seekg(0, std::ios::end);
    _fileSize = static_cast<std::uint64_t>(_is.tellg());
    _is.seekg(0);
    if (!_is || _fileSize < kHeaderFixedBytes)
        die(0, "file too small for a ctrace header (" +
                   std::to_string(_fileSize) + " bytes)");

    char header[kHeaderFixedBytes];
    _is.read(header, sizeof(header));
    if (!_is)
        die(0, "cannot read header");
    if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0)
        die(0, "bad magic (not a ctrace file)");
    _info.version = getLE<std::uint16_t>(header + 8);
    if (_info.version != kVersion)
        die(8, "unsupported version " + std::to_string(_info.version));
    const auto flags = getLE<std::uint16_t>(header + 10);
    if (flags & ~kKnownFlags)
        die(10, "unknown flag bits 0x" + std::to_string(flags));
    _info.reference_stream = (flags & kFlagReferenceStream) != 0;
    _info.synthetic_source = (flags & kFlagSyntheticSource) != 0;
    _info.threads = getLE<std::uint32_t>(header + 12);
    if (_info.threads == 0)
        die(12, "thread count is zero");
    if (_info.threads > kMaxThreads)
        die(12, "thread count " + std::to_string(_info.threads) +
                    " exceeds the limit of " +
                    std::to_string(kMaxThreads));
    _info.records = getLE<std::uint64_t>(header + 16);
    _info.total_think = getLE<std::uint64_t>(header + 24);
    _info.offered_bytes_per_second = getLE<double>(header + 32);
    _indexOffset = getLE<std::uint64_t>(header + 40);
    const auto name_len = getLE<std::uint16_t>(header + 48);
    const std::uint64_t header_end = kHeaderFixedBytes + name_len;
    if (header_end > _fileSize)
        die(48, "source name runs past end of file");
    _info.name.resize(name_len);
    _is.read(_info.name.data(), name_len);

    if (_indexOffset == 0)
        die(40, "no index — the file is unfinished or torn");
    // _fileSize >= kHeaderFixedBytes, so these subtractions cannot
    // wrap; sizes read from the file are bounded by the bytes really
    // there before any arithmetic on them.
    if (_indexOffset < header_end ||
        _indexOffset > _fileSize - sizeof(kIndexMagic) - 8)
        die(40, "index offset " + std::to_string(_indexOffset) +
                    " outside the file");

    _is.seekg(static_cast<std::streamoff>(_indexOffset));
    char index_magic[sizeof(kIndexMagic)];
    _is.read(index_magic, sizeof(index_magic));
    if (!_is ||
        std::memcmp(index_magic, kIndexMagic, sizeof(kIndexMagic)) != 0)
        die(_indexOffset, "bad index magic");
    char count_bytes[8];
    _is.read(count_bytes, sizeof(count_bytes));
    const auto block_count = getLE<std::uint64_t>(count_bytes);
    const std::uint64_t index_room =
        _fileSize - _indexOffset - sizeof(kIndexMagic) - 8;
    if (block_count > index_room / kIndexEntryBytes)
        die(_indexOffset, "index truncated (" +
                              std::to_string(block_count) +
                              " blocks declared)");
    const std::uint64_t index_end = _indexOffset + sizeof(kIndexMagic) +
                                    8 + block_count * kIndexEntryBytes;
    if (index_end != _fileSize)
        die(index_end, "trailing bytes after the index");

    _blocks.reserve(block_count);
    _threadBlocks.resize(_info.threads);
    std::string entries(block_count * kIndexEntryBytes, '\0');
    _is.read(entries.data(),
             static_cast<std::streamsize>(entries.size()));
    if (!_is)
        die(_indexOffset, "cannot read index");
    std::uint64_t prev_end = header_end;
    std::uint64_t total_records = 0;
    for (std::uint64_t i = 0; i < block_count; ++i) {
        const char *at = entries.data() + i * kIndexEntryBytes;
        BlockRef ref;
        ref.thread = getLE<std::uint32_t>(at);
        ref.count = getLE<std::uint32_t>(at + 4);
        ref.offset = getLE<std::uint64_t>(at + 8);
        const std::uint64_t entry_off =
            _indexOffset + sizeof(kIndexMagic) + 8 +
            i * kIndexEntryBytes;
        if (ref.thread >= _info.threads)
            die(entry_off, "block " + std::to_string(i) +
                               " names impossible thread " +
                               std::to_string(ref.thread) + " (" +
                               std::to_string(_info.threads) +
                               " threads)");
        if (ref.count == 0)
            die(entry_off, "block " + std::to_string(i) + " is empty");
        if (ref.offset != prev_end)
            die(entry_off, "block " + std::to_string(i) +
                               " offset disagrees with the previous "
                               "block's end");
        if (ref.offset + kFrameHeaderBytes > _indexOffset)
            die(entry_off, "block " + std::to_string(i) +
                               " overlaps the index");
        total_records += ref.count;
        _threadBlocks[ref.thread].push_back(
            static_cast<std::uint32_t>(_blocks.size()));
        _blocks.push_back(ref);
        // The frame's payload size lives in the frame header; bound it
        // here by the next structure so readBlock can verify exactly.
        prev_end = ref.offset; // Updated below once the frame is read.
        // We cannot know payload length without reading the frame, so
        // chain validation of the gap happens lazily in readBlock();
        // here we only require monotone, non-overlapping placement
        // via the equality check above — which needs prev_end to be
        // this block's end. Read the frame header now (12 bytes) to
        // learn it; index loading stays O(blocks), not O(records).
        const auto keep = _is.tellg();
        _is.seekg(static_cast<std::streamoff>(ref.offset));
        char frame[kFrameHeaderBytes];
        _is.read(frame, sizeof(frame));
        if (!_is)
            die(ref.offset, "cannot read block " + std::to_string(i) +
                                " frame header");
        const auto frame_thread = getLE<std::uint32_t>(frame);
        const auto frame_count = getLE<std::uint32_t>(frame + 4);
        const auto payload = getLE<std::uint32_t>(frame + 8);
        if (frame_thread != ref.thread || frame_count != ref.count)
            die(ref.offset, "block " + std::to_string(i) +
                                " frame header disagrees with the "
                                "index");
        // A record is at least three one-byte varints; the count also
        // sizes readBlock's buffer, so it must fit the payload.
        if (ref.count > payload / 3)
            die(ref.offset, "block " + std::to_string(i) + " declares " +
                                std::to_string(ref.count) +
                                " records in a " +
                                std::to_string(payload) +
                                "-byte payload");
        prev_end = ref.offset + kFrameHeaderBytes + payload;
        if (prev_end > _indexOffset)
            die(ref.offset, "block " + std::to_string(i) +
                                " payload is torn (runs past the "
                                "index)");
        _is.seekg(keep);
    }
    if (prev_end != _indexOffset)
        die(prev_end, "gap between the last block and the index");
    if (total_records != _info.records)
        die(16, "header records " + std::to_string(_info.records) +
                    " != indexed records " +
                    std::to_string(total_records));
}

void
Reader::readBlock(std::uint32_t index,
                  std::vector<workload::TraceRecord> &out)
{
    if (index >= _blocks.size())
        sim::fatal("ctrace \"" + _label + "\": block index " +
                   std::to_string(index) + " out of range");
    const BlockRef &ref = _blocks[index];
    _is.clear();
    _is.seekg(static_cast<std::streamoff>(ref.offset));
    char frame[kFrameHeaderBytes];
    _is.read(frame, sizeof(frame));
    if (!_is)
        die(ref.offset, "cannot read block frame header");
    const auto payload = getLE<std::uint32_t>(frame + 8);
    _blockBuffer.resize(payload);
    _is.read(_blockBuffer.data(), payload);
    if (!_is)
        die(ref.offset + kFrameHeaderBytes, "block payload is torn");

    out.clear();
    out.reserve(ref.count);
    const char *at = _blockBuffer.data();
    const char *end = at + payload;
    std::uint64_t prev_line = 0;
    std::int64_t prev_home = 0;
    for (std::uint32_t i = 0; i < ref.count; ++i) {
        const std::uint64_t record_off =
            ref.offset + kFrameHeaderBytes +
            static_cast<std::uint64_t>(at - _blockBuffer.data());
        std::uint64_t v0 = 0, v1 = 0, v2 = 0;
        if (!obs::readVarint(at, end, v0) ||
            !obs::readVarint(at, end, v1) ||
            !obs::readVarint(at, end, v2))
            die(record_off, "corrupt varint in record " +
                                std::to_string(i) + " of block");
        workload::TraceRecord record;
        record.thread = ref.thread;
        record.think_time = v0 >> 1;
        record.write = static_cast<std::uint8_t>(v0 & 1);
        prev_line += static_cast<std::uint64_t>(obs::unzigzag(v1));
        record.line = prev_line;
        prev_home += obs::unzigzag(v2);
        if (prev_home < 0 ||
            prev_home > std::numeric_limits<std::uint32_t>::max())
            die(record_off, "record " + std::to_string(i) +
                                " decodes impossible home cluster " +
                                std::to_string(prev_home));
        record.home = static_cast<std::uint32_t>(prev_home);
        out.push_back(record);
    }
    if (at != end)
        die(ref.offset + kFrameHeaderBytes +
                static_cast<std::uint64_t>(at - _blockBuffer.data()),
            "trailing bytes after the block's last record");
}

TraceInfo
readTraceInfo(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        sim::fatal("ctrace: cannot read \"" + path + "\"");
    Reader reader(in, path);
    return reader.info();
}

} // namespace corona::trace
