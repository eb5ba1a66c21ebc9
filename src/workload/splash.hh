/**
 * @file
 * SPLASH-2 workload models (Table 3).
 *
 * The paper drives its network simulator with L2-miss traces captured
 * from 1024-thread SPLASH-2 runs under COTSon. We reproduce the traces
 * generatively: each benchmark is a parameterized miss-stream model
 * calibrated to (a) Table 3's request counts and data sets, (b) the
 * per-benchmark memory-bandwidth demands evident in Figure 9, and (c)
 * the qualitative behaviours Section 5 discusses — in particular the
 * barrier-synchronized bursty access of LU and Raytrace, where "many
 * threads attempt to access the same remotely stored matrix block at the
 * same time, following a barrier".
 *
 * Knobs per benchmark:
 *  - mean think time (sets offered load: 1024 threads x 64 B / think);
 *  - write fraction;
 *  - footprint (lines per home region; small footprints see MSHR
 *    coalescing, as real shared data does);
 *  - burst spec: barrier epoch length, burst size, and whether bursts
 *    target a per-epoch hot block (LU's matrix block).
 */

#ifndef CORONA_WORKLOAD_SPLASH_HH
#define CORONA_WORKLOAD_SPLASH_HH

#include <vector>

#include "topology/geometry.hh"
#include "workload/workload.hh"

namespace corona::workload {

/** Barrier-burst behaviour specification. */
struct BurstSpec
{
    bool enabled = false;
    /** Barrier-to-barrier period, ticks. */
    sim::Tick epoch_length = 0;
    /** Misses issued back to back after each barrier. */
    std::uint32_t burst_size = 0;
    /** Issue gap inside a burst, ticks. */
    sim::Tick intra_burst_gap = 400; // 2 clocks
    /** Bursts target one hot block (rotating per epoch) when true. */
    bool hot_block = false;
    /** Lines per hot block (a matrix block spans many lines). */
    std::uint32_t block_lines = 64;
    /** Fraction of burst misses aimed at the hot block's home. A real
     * matrix block interleaves across many controllers, so only part
     * of the post-barrier surge concentrates on one cluster — enough
     * to oversubscribe a mesh's links, not enough to serialize on a
     * single memory controller. */
    double hot_fraction = 0.125;
};

/** Calibrated parameters of one SPLASH-2 benchmark. */
struct SplashParams
{
    std::string name;
    std::string dataset;            ///< Experimental data set (Table 3).
    std::uint64_t paper_requests;   ///< Network requests (Table 3).
    sim::Tick mean_think;           ///< Per-thread inter-miss gap.
    double write_fraction;
    std::uint64_t footprint_lines = 1 << 20; ///< Lines per home region.
    BurstSpec burst;
    std::size_t threads_per_cluster = 16;
};

/**
 * Generative SPLASH-2 miss-stream model.
 */
class SplashWorkload : public Workload
{
  public:
    SplashWorkload(const SplashParams &params,
                   const topology::Geometry &geom = topology::Geometry());

    std::string name() const override { return _params.name; }
    MissRequest next(std::size_t thread, sim::Tick now,
                     sim::Rng &rng) override;
    std::uint64_t paperRequests() const override;
    double offeredBytesPerSecond() const override;
    std::size_t threads() const override;

    void
    reset() override
    {
        _state.assign(_state.size(), ThreadState{});
    }

    const SplashParams &params() const { return _params; }

  private:
    MissRequest nextBursty(std::size_t thread, sim::Tick now,
                           sim::Rng &rng);

    /** Pick a home + line with the model's footprint. */
    void chooseLine(MissRequest &req, sim::Rng &rng);

    SplashParams _params;
    topology::Geometry _geom;

    struct ThreadState
    {
        std::uint32_t burst_remaining = 0;
        std::uint64_t epoch = 0;
    };
    std::vector<ThreadState> _state;
};

/** The eleven benchmarks of Table 3 with calibrated parameters. */
std::vector<SplashParams> splashSuite();

/** Look up one benchmark's parameters by name (e.g. "FFT"). */
SplashParams splashParams(const std::string &name);

} // namespace corona::workload

#endif // CORONA_WORKLOAD_SPLASH_HH
