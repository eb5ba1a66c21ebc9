#include "workload/splash.hh"

#include <stdexcept>

#include "noc/message.hh"

namespace corona::workload {

SplashWorkload::SplashWorkload(const SplashParams &params,
                               const topology::Geometry &geom)
    : _params(params), _geom(geom),
      _state(geom.clusters() * params.threads_per_cluster)
{
    if (params.mean_think == 0)
        throw std::invalid_argument("SplashWorkload: zero think time");
    if (params.burst.enabled && params.burst.epoch_length == 0)
        throw std::invalid_argument("SplashWorkload: zero epoch length");
}

std::size_t
SplashWorkload::threads() const
{
    return _geom.clusters() * _params.threads_per_cluster;
}

std::uint64_t
SplashWorkload::paperRequests() const
{
    return _params.paper_requests;
}

double
SplashWorkload::offeredBytesPerSecond() const
{
    const double per_thread =
        static_cast<double>(noc::cacheLineBytes) /
        sim::ticksToSeconds(_params.mean_think);
    return per_thread * static_cast<double>(threads());
}

void
SplashWorkload::chooseLine(MissRequest &req, sim::Rng &rng)
{
    req.home = static_cast<topology::ClusterId>(
        rng.below(_geom.clusters()));
    const std::uint64_t index = rng.below(_params.footprint_lines);
    req.line = (req.home * (1ull << 40) + index) * noc::cacheLineBytes;
}

MissRequest
SplashWorkload::next(std::size_t thread, sim::Tick now, sim::Rng &rng)
{
    if (thread >= _state.size())
        throw std::out_of_range("SplashWorkload::next: bad thread");
    if (_params.burst.enabled)
        return nextBursty(thread, now, rng);

    MissRequest req;
    req.think_time = static_cast<sim::Tick>(
        rng.exponential(static_cast<double>(_params.mean_think)));
    chooseLine(req, rng);
    req.write = rng.chance(_params.write_fraction);
    return req;
}

MissRequest
SplashWorkload::nextBursty(std::size_t thread, sim::Tick now,
                           sim::Rng &rng)
{
    ThreadState &state = _state[thread];
    const BurstSpec &burst = _params.burst;
    MissRequest req;
    req.write = rng.chance(_params.write_fraction);

    if (state.burst_remaining == 0) {
        // Compute phase: wait for the next barrier epoch boundary, with
        // a little per-thread skew so arrivals are not a delta function.
        const std::uint64_t next_epoch =
            now / burst.epoch_length + 1;
        const sim::Tick boundary = next_epoch * burst.epoch_length;
        const auto skew = static_cast<sim::Tick>(
            rng.exponential(static_cast<double>(burst.intra_burst_gap) *
                            4.0));
        req.think_time = (boundary - now) + skew;
        state.epoch = next_epoch;
        state.burst_remaining = burst.burst_size;
    } else {
        req.think_time = burst.intra_burst_gap +
            static_cast<sim::Tick>(rng.exponential(
                static_cast<double>(burst.intra_burst_gap)));
    }
    --state.burst_remaining;

    if (burst.hot_block && rng.chance(burst.hot_fraction)) {
        // Part of every thread's burst chases the same per-epoch block
        // (LU's remotely stored matrix block): one rotating home
        // cluster, a small set of lines within it. The rest of the
        // surge spreads across the interleaved matrix.
        const auto home = static_cast<topology::ClusterId>(
            state.epoch % _geom.clusters());
        const std::uint64_t index = rng.below(burst.block_lines);
        req.home = home;
        req.line = (home * (1ull << 40) + (state.epoch << 20) + index) *
                   noc::cacheLineBytes;
    } else {
        chooseLine(req, rng);
    }
    return req;
}

std::vector<SplashParams>
splashSuite()
{
    // Calibration: mean think time = 1024 threads x 64 B / target demand
    // (Figure 9); request counts and data sets from Table 3. Bursty
    // models for LU and Raytrace per Section 5's analysis.
    std::vector<SplashParams> suite;

    auto add = [&suite](std::string name, std::string dataset,
                        std::uint64_t requests, double demand_tbps,
                        double write_fraction) -> SplashParams & {
        SplashParams p;
        p.name = std::move(name);
        p.dataset = std::move(dataset);
        p.paper_requests = requests;
        const double bytes = 1024.0 * 64.0;
        const double seconds = bytes / (demand_tbps * 1e12);
        p.mean_think = sim::secondsToTicks(seconds);
        p.write_fraction = write_fraction;
        suite.push_back(std::move(p));
        return suite.back();
    };

    add("Barnes", "64 K particles", 7'200'000, 0.15, 0.25);
    add("Cholesky", "tk29.O", 600'000, 2.2, 0.30);
    add("FFT", "16 M points", 176'000'000, 3.2, 0.40);
    add("FMM", "1 M particles", 1'800'000, 1.3, 0.25);

    auto &lu = add("LU", "2048x2048 matrix", 34'000'000, 1.1, 0.30);
    lu.burst.enabled = true;
    lu.burst.epoch_length = sim::nanosecondsToTicks(1400.0);
    lu.burst.burst_size = 24;
    lu.burst.hot_block = true;
    lu.burst.block_lines = 64;

    add("Ocean", "2050x2050 grid", 240'000'000, 4.2, 0.40);
    add("Radiosity", "roomlarge", 4'200'000, 0.22, 0.30);
    add("Radix", "64 M integers", 189'000'000, 5.2, 0.45);

    auto &ray = add("Raytrace", "balls4", 700'000, 0.9, 0.20);
    ray.burst.enabled = true;
    ray.burst.epoch_length = sim::nanosecondsToTicks(1100.0);
    ray.burst.burst_size = 16;
    ray.burst.hot_block = true;
    ray.burst.block_lines = 32;

    add("Volrend", "head", 3'600'000, 0.33, 0.20);
    add("Water-Sp", "32 K molecules", 3'200'000, 0.16, 0.30);
    return suite;
}

SplashParams
splashParams(const std::string &name)
{
    for (auto &params : splashSuite()) {
        if (params.name == name)
            return params;
    }
    throw std::out_of_range("splashParams: unknown benchmark " + name);
}

} // namespace corona::workload
