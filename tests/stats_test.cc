/**
 * @file
 * Unit tests for the statistics primitives.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "stats/report.hh"
#include "stats/stats.hh"

namespace {

using namespace corona;

TEST(Counter, IncrementsAndResets)
{
    stats::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.increment();
    c.increment(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(RunningStats, MeanVarianceExtrema)
{
    stats::RunningStats s;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.sample(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.total(), 40.0);
}

TEST(RunningStats, EmptyIsZero)
{
    stats::RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MergeMatchesCombinedStream)
{
    stats::RunningStats a, b, all;
    for (int i = 0; i < 100; ++i) {
        const double x = static_cast<double>(i * i % 37);
        if (i % 2 == 0)
            a.sample(x);
        else
            b.sample(x);
        all.sample(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides)
{
    stats::RunningStats a, b;
    a.sample(1.0);
    a.sample(3.0);
    stats::RunningStats a_copy = a;
    a.merge(b); // Merging empty changes nothing.
    EXPECT_EQ(a.count(), 2u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.0);
    b.merge(a_copy); // Merging into empty copies.
    EXPECT_EQ(b.count(), 2u);
    EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Histogram, BucketsAndOverflow)
{
    stats::Histogram h(10.0, 5);
    h.sample(0.0);
    h.sample(9.999);
    h.sample(10.0);
    h.sample(49.0);
    h.sample(50.0);  // overflow
    h.sample(999.0); // overflow
    EXPECT_EQ(h.count(), 6u);
    EXPECT_EQ(h.bucket(0), 2u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(4), 1u);
    EXPECT_EQ(h.overflow(), 2u);
}

TEST(Histogram, PercentileIsMonotonic)
{
    stats::Histogram h(1.0, 100);
    for (int i = 0; i < 100; ++i)
        h.sample(static_cast<double>(i));
    const double p50 = h.percentile(0.50);
    const double p90 = h.percentile(0.90);
    const double p99 = h.percentile(0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_NEAR(p50, 50.0, 2.0);
    EXPECT_NEAR(p99, 99.0, 2.0);
}

TEST(Histogram, RejectsBadGeometryAndFraction)
{
    EXPECT_THROW(stats::Histogram(0.0, 5), std::invalid_argument);
    EXPECT_THROW(stats::Histogram(1.0, 0), std::invalid_argument);
    stats::Histogram h(1.0, 4);
    EXPECT_THROW(h.percentile(1.5), std::invalid_argument);
}

TEST(Histogram, ResetClears)
{
    stats::Histogram h(1.0, 4);
    h.sample(1.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.bucket(1), 0u);
}

TEST(GeometricMean, MatchesHandComputation)
{
    EXPECT_DOUBLE_EQ(stats::geometricMean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(stats::geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_THROW(stats::geometricMean({}), std::invalid_argument);
    EXPECT_THROW(stats::geometricMean({1.0, 0.0}), std::invalid_argument);
}

TEST(TableWriter, AlignsColumnsAndValidatesRows)
{
    stats::TableWriter table("Demo");
    table.setHeader({"name", "value"});
    table.addRow({"alpha", "1"});
    table.addRow({"bb", "22"});
    std::ostringstream oss;
    table.print(oss);
    const std::string out = oss.str();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_THROW(table.addRow({"only-one-cell"}), std::invalid_argument);
}

TEST(Formatting, FixedDigits)
{
    EXPECT_EQ(stats::formatDouble(3.14159, 3), "3.142");
}

} // namespace
