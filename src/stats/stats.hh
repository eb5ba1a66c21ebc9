/**
 * @file
 * Statistics primitives used by all model components.
 *
 * Deliberately small: counters, running scalar statistics (mean / variance
 * / extrema) and fixed-bucket histograms. All are plain value types;
 * components aggregate them and the reporting layer (stats/report.hh)
 * formats them.
 */

#ifndef CORONA_STATS_STATS_HH
#define CORONA_STATS_STATS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace corona::stats {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void increment(std::uint64_t by = 1) { _value += by; }
    std::uint64_t value() const { return _value; }
    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * Running scalar statistics: count, mean, variance, min, max.
 *
 * Uses Welford's algorithm so that long simulations do not lose precision.
 */
class RunningStats
{
  public:
    void sample(double x);

    std::uint64_t count() const { return _count; }
    double mean() const { return _count ? _mean : 0.0; }
    double variance() const;
    double stddev() const;
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }
    double total() const { return _total; }

    void reset() { *this = RunningStats(); }

    /** Merge another set of samples into this one. */
    void merge(const RunningStats &other);

  private:
    std::uint64_t _count = 0;
    double _mean = 0.0;
    double _m2 = 0.0;
    double _min = 0.0;
    double _max = 0.0;
    double _total = 0.0;
};

/**
 * Fixed-width-bucket histogram over [0, bucketWidth * buckets), with an
 * overflow bucket. Useful for latency distributions.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (must be > 0).
     * @param num_buckets Number of regular buckets (>= 1).
     */
    Histogram(double bucket_width, std::size_t num_buckets);

    void sample(double x);

    std::uint64_t count() const { return _count; }
    std::uint64_t bucket(std::size_t i) const { return _buckets.at(i); }
    std::uint64_t overflow() const { return _overflow; }
    std::size_t numBuckets() const { return _buckets.size(); }
    double bucketWidth() const { return _bucketWidth; }

    /** Value below which @p fraction of samples fall (linear in-bucket). */
    double percentile(double fraction) const;

    /**
     * Fold @p other into this histogram. Both must share the same
     * bucket geometry. Bucket counts are integers, so merging is
     * exactly commutative — per-shard histograms combined in any fixed
     * order reproduce the single-histogram result bit for bit.
     */
    void merge(const Histogram &other);

    void reset();

  private:
    double _bucketWidth;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _overflow = 0;
    std::uint64_t _count = 0;
};

/** Geometric mean of a set of strictly positive values. */
double geometricMean(const std::vector<double> &values);

} // namespace corona::stats

#endif // CORONA_STATS_STATS_HH
