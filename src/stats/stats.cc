#include "stats/stats.hh"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace corona::stats {

void
RunningStats::sample(double x)
{
    ++_count;
    _total += x;
    const double delta = x - _mean;
    _mean += delta / static_cast<double>(_count);
    _m2 += delta * (x - _mean);
    if (_count == 1) {
        _min = _max = x;
    } else {
        _min = std::min(_min, x);
        _max = std::max(_max, x);
    }
}

double
RunningStats::variance() const
{
    return _count > 1 ? _m2 / static_cast<double>(_count - 1) : 0.0;
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other._count == 0)
        return;
    if (_count == 0) {
        *this = other;
        return;
    }
    const double n1 = static_cast<double>(_count);
    const double n2 = static_cast<double>(other._count);
    const double delta = other._mean - _mean;
    const double n = n1 + n2;
    _m2 += other._m2 + delta * delta * n1 * n2 / n;
    _mean += delta * n2 / n;
    _count += other._count;
    _total += other._total;
    _min = std::min(_min, other._min);
    _max = std::max(_max, other._max);
}

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : _bucketWidth(bucket_width), _buckets(num_buckets, 0)
{
    if (bucket_width <= 0 || num_buckets == 0)
        throw std::invalid_argument("Histogram: bad geometry");
}

void
Histogram::sample(double x)
{
    ++_count;
    if (x < 0) {
        ++_buckets[0];
        return;
    }
    const auto idx = static_cast<std::size_t>(x / _bucketWidth);
    if (idx >= _buckets.size())
        ++_overflow;
    else
        ++_buckets[idx];
}

double
Histogram::percentile(double fraction) const
{
    if (fraction < 0.0 || fraction > 1.0)
        throw std::invalid_argument("Histogram::percentile: bad fraction");
    if (_count == 0)
        return 0.0;
    const double target = fraction * static_cast<double>(_count);
    double cumulative = 0.0;
    for (std::size_t i = 0; i < _buckets.size(); ++i) {
        const double next = cumulative + static_cast<double>(_buckets[i]);
        if (next >= target && _buckets[i] > 0) {
            const double within =
                (target - cumulative) / static_cast<double>(_buckets[i]);
            return (static_cast<double>(i) + within) * _bucketWidth;
        }
        cumulative = next;
    }
    return static_cast<double>(_buckets.size()) * _bucketWidth;
}

void
Histogram::merge(const Histogram &other)
{
    if (other._bucketWidth != _bucketWidth ||
        other._buckets.size() != _buckets.size())
        throw std::invalid_argument(
            "Histogram::merge: mismatched bucket geometry");
    for (std::size_t i = 0; i < _buckets.size(); ++i)
        _buckets[i] += other._buckets[i];
    _overflow += other._overflow;
    _count += other._count;
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _overflow = 0;
    _count = 0;
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        throw std::invalid_argument("geometricMean: empty input");
    double log_sum = 0.0;
    for (double v : values) {
        if (v <= 0)
            throw std::invalid_argument("geometricMean: non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace corona::stats
