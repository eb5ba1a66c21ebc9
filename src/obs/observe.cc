#include "obs/observe.hh"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>

#include "corona/context.hh"
#include "corona/system.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace corona::obs {

const char obsContainerMagic[8] = {'C', 'R', 'N', 'O', 'B', 'C', '1',
                                   '\n'};

namespace {

void
writeFileOrDie(const std::string &path,
               const std::function<void(std::ostream &)> &emit)
{
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    if (!os)
        sim::fatal("obs: cannot open output file: " + path);
    emit(os);
    os.flush();
    if (!os)
        sim::fatal("obs: write failed: " + path);
}

/**
 * The per-run hot write: create + one write() + close, no stream
 * machinery. Campaigns call this once per observed run, and on the
 * filesystems they write to the syscalls are the whole cost — the
 * buffer is already the exact file bytes.
 */
void
writeWholeFileOrDie(const std::string &path, const std::string &bytes)
{
    const int fd = ::open(path.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                          0644);
    if (fd < 0)
        sim::fatal("obs: cannot open output file: " + path);
    std::size_t done = 0;
    while (done < bytes.size()) {
        const ::ssize_t wrote =
            ::write(fd, bytes.data() + done, bytes.size() - done);
        if (wrote <= 0) {
            ::close(fd);
            sim::fatal("obs: write failed: " + path);
        }
        done += static_cast<std::size_t>(wrote);
    }
    if (::close(fd) != 0)
        sim::fatal("obs: write failed: " + path);
}

void
appendU64(std::string &out, std::uint64_t value)
{
    char raw[sizeof(value)];
    std::memcpy(raw, &value, sizeof(value));
    out.append(raw, sizeof(value));
}

/**
 * Open the container at @p path and position the stream at the start
 * of its section of kind @p want (see obsContainerMagic for the
 * layout). Returns load(stream, path).
 */
template <typename Load>
auto
loadObsSection(const std::string &path, std::uint64_t want,
               const char *plane, Load &&load)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        sim::fatal("obs: cannot read " + path);
    char magic[8] = {};
    is.read(magic, sizeof(magic));
    if (!is ||
        !std::equal(magic, magic + sizeof(magic), obsContainerMagic))
        sim::fatal(path + ": not an observability container");
    const auto readU64 = [&is, &path]() {
        std::uint64_t value = 0;
        is.read(reinterpret_cast<char *>(&value), sizeof(value));
        if (!is)
            sim::fatal(path + ": truncated observability container");
        return value;
    };
    const std::uint64_t sections = readU64();
    if (sections > 64)
        sim::fatal(path + ": implausible container section count");
    for (std::uint64_t i = 0; i < sections; ++i) {
        const std::uint64_t kind = readU64();
        const std::uint64_t bytes = readU64();
        if (kind == want)
            return load(is, path);
        is.seekg(static_cast<std::istream::off_type>(bytes),
                 std::ios::cur);
        if (!is)
            sim::fatal(path + ": truncated observability container");
    }
    sim::fatal(path + ": container has no " + plane + " section");
}

} // namespace

TimeSeriesData
loadTimeSeriesFile(const std::string &path)
{
    return loadObsSection(path, 1, "time-series",
                          [](std::istream &is, const std::string &what) {
                              return readTimeSeriesBinary(is, what);
                          });
}

TraceData
loadTraceFile(const std::string &path)
{
    return loadObsSection(path, 2, "trace",
                          [](std::istream &is, const std::string &what) {
                              return readTraceBinary(is, what);
                          });
}

RunObservability
CampaignObsOptions::forRun(std::size_t run_index) const
{
    RunObservability obs;
    obs.sample_period = sample_period;
    obs.trace_capacity = trace_capacity;
    obs.snapshot = snapshot;
    const std::string stem = dir + "/run" + std::to_string(run_index);
    if (sample_period > 0 || trace_capacity > 0)
        obs.obs_path = stem + ".obs.bin";
    if (snapshot)
        obs.snapshot_path = stem + ".snapshot.csv";
    return obs;
}

RunObserver::RunObserver(core::SimContext &ctx,
                         const RunObservability &obs)
    : _ctx(ctx), _obs(obs), _registry(ctx.obsRegistry())
{
    if (_registry.empty())
        _ctx.system().instrument(_registry);
    if (_obs.trace_capacity > 0 && _ctx.executor())
        sim::fatal("obs: event tracing requires the serial engine "
                   "(the shared ring's eviction order is not "
                   "shard-count-invariant); effectiveSimThreads() "
                   "plans traced runs serial");
    if (_obs.trace_capacity > 0) {
        // Reuse the context's ring: rebuilding a multi-thousand-slot
        // ring per run is an mmap round trip and a page-fault storm on
        // every cell of an observed campaign.
        ObsScratch &scratch = _ctx.obsScratch();
        if (!scratch.tracer ||
            scratch.tracer->capacity() != _obs.trace_capacity)
            scratch.tracer =
                std::make_unique<EventTracer>(_obs.trace_capacity);
        else
            scratch.tracer->reset();
        _tracer = scratch.tracer.get();
        _ctx.system().setTracer(_tracer);
    }
}

RunObserver::~RunObserver()
{
    if (_tracer)
        _ctx.system().setTracer(nullptr);
    if (_hookedExecutor)
        _hookedExecutor->clearTickHook();
}

void
RunObserver::start()
{
    if (_obs.sample_period > 0) {
        // Same reuse story as the tracer: the sampler's resolved probe
        // table and row block keep their capacity across leases, and
        // start() clears lengths. The registry and queue references it
        // binds are the context's own, so they stay valid as long as
        // the scratch does.
        ObsScratch &scratch = _ctx.obsScratch();
        if (!scratch.sampler ||
            scratch.sampler->period() != _obs.sample_period)
            scratch.sampler = std::make_unique<TimeSeriesSampler>(
                _registry, _ctx.eq(), _obs.sample_period);
        _sampler = scratch.sampler.get();
        if (sim::ShardedExecutor *exec = _ctx.executor()) {
            // Sharded runs sample at window barriers: every event up
            // to the sample tick has executed and none beyond it, the
            // same cut the serial sampler's self-scheduled event sees.
            _sampler->startExternal();
            TimeSeriesSampler *sampler = _sampler;
            exec->setTickHook(
                _obs.sample_period,
                [sampler](sim::Tick tick) { sampler->sampleTick(tick); });
            _hookedExecutor = exec;
        } else {
            _sampler->start();
        }
    }
}

void
RunObserver::finish()
{
    if (!_obs.obs_path.empty() && (_sampler || _tracer)) {
        std::string &buf = _ctx.obsScratch().file_buffer;
        buf.clear();
        buf.append(obsContainerMagic, sizeof(obsContainerMagic));
        appendU64(buf, (_sampler ? 1u : 0u) + (_tracer ? 1u : 0u));
        const auto section = [&buf](std::uint64_t kind,
                                    const auto &emit) {
            appendU64(buf, kind);
            const std::size_t size_at = buf.size();
            appendU64(buf, 0); // Patched once the payload is known.
            const std::size_t payload_at = buf.size();
            emit(buf);
            const std::uint64_t payload = buf.size() - payload_at;
            std::memcpy(buf.data() + size_at, &payload,
                        sizeof(payload));
        };
        if (_sampler)
            section(1, [this](std::string &out) {
                _sampler->appendBinary(out);
            });
        if (_tracer)
            section(2, [this](std::string &out) {
                _tracer->appendBinary(out);
            });
        writeWholeFileOrDie(_obs.obs_path, buf);
    }
    if (_obs.snapshot && !_obs.snapshot_path.empty())
        writeFileOrDie(_obs.snapshot_path, [this](std::ostream &os) {
            _registry.writeSnapshotCsv(os);
        });
    if (_hookedExecutor) {
        _hookedExecutor->clearTickHook();
        _hookedExecutor = nullptr;
    }
    if (_obs.capture) {
        _obs.capture->end_tick = _ctx.executor()
                                     ? _ctx.executor()->now()
                                     : _ctx.eq().now();
        _obs.capture->values = _registry.read();
        if (_obs.capture->want_paths)
            _obs.capture->paths = _registry.paths();
    }
}

} // namespace corona::obs
