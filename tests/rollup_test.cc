/**
 * @file
 * Tests for the campaign observability rollup (src/campaign/
 * obs_rollup): canonical write bytes (sorting, run deduplication),
 * read/write round trips and the deterministic report renderer. The
 * rollup's worker-count invariance is checked end to end in obs_test.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/obs_rollup.hh"
#include "sim/logging.hh"

namespace {

using namespace corona;

std::string
rollupBytes(const campaign::ObsRollup &rollup)
{
    std::ostringstream os;
    rollup.write(os);
    return os.str();
}

// ---------------------------------------------------------------------
// Canonical form and round trip.

TEST(ObsRollup, WriteSortsGroupsAndRowsAndDeduplicatesRuns)
{
    campaign::ObsRollup rollup;
    rollup.addRun("zeta", 3, 30, {"p/a", "p/b"}, {3.0, 0.25});
    rollup.addRun("alpha", 1, 10, {"q/x"}, {1.5});
    rollup.addRun("zeta", 2, 20, {}, {2.0, 0.5});
    // Same run again (a retried cell): last write wins.
    rollup.addRun("zeta", 3, 31, {}, {3.5, 0.75});

    EXPECT_EQ(rollupBytes(rollup), "corona-rollup-v1\n"
                                   "group,alpha\n"
                                   "run,tick,q/x\n"
                                   "1,10,1.5\n"
                                   "group,zeta\n"
                                   "run,tick,p/a,p/b\n"
                                   "2,20,2,0.5\n"
                                   "3,31,3.5,0.75\n");
}

TEST(ObsRollup, RejectsMismatchedPathsAndValueCounts)
{
    campaign::ObsRollup rollup;
    rollup.addRun("cfg", 0, 5, {"p/a", "p/b"}, {1.0, 2.0});
    EXPECT_THROW(rollup.addRun("cfg", 1, 6, {"p/a", "p/DIFFERENT"},
                               {1.0, 2.0}),
                 sim::FatalError);
    EXPECT_THROW(rollup.addRun("cfg", 1, 6, {}, {1.0}),
                 sim::FatalError);
}

TEST(ObsRollup, ReadWriteRoundTripIsByteStable)
{
    campaign::ObsRollup rollup;
    rollup.addRun("cfg", 0, 100, {"a/b", "c/d"}, {0.1, 1e-9});
    rollup.addRun("cfg", 1, 200, {}, {0.30000000000000004, 12345.0});

    const std::string bytes = rollupBytes(rollup);
    std::istringstream in(bytes);
    const campaign::ObsRollup reread =
        campaign::ObsRollup::read(in, "round trip");
    EXPECT_EQ(rollupBytes(reread), bytes);
}

TEST(ObsRollup, ReadRejectsNonCanonicalNumbersNamingTheLine)
{
    // Each bad row follows one good row, so it sits on line 5: a
    // negative or padded run index, a signed tick, a hex value and a
    // run index past 2^64 - 1.
    const std::string head = "corona-rollup-v1\n"
                             "group,cfg\n"
                             "run,tick,p/a\n"
                             "0,10,1.5\n";
    for (const char *row :
         {"-1,10,1.5", " 7,10,1.5", "7,+5,1.5", "7,10,0x10",
          "18446744073709551616,10,1.5"}) {
        std::istringstream in(head + row + "\n");
        try {
            campaign::ObsRollup::read(in, "rollup.csv");
            ADD_FAILURE() << "accepted \"" << row << "\"";
        } catch (const sim::FatalError &err) {
            EXPECT_NE(std::string(err.what()).find("rollup.csv:5: "),
                      std::string::npos)
                << err.what();
        }
    }

    // The nan and inf that obs::formatValue writes read back, and
    // write out as the same bytes.
    const std::string special = head + "1,20,nan\n2,30,-inf\n";
    std::istringstream in(special);
    const campaign::ObsRollup rollup =
        campaign::ObsRollup::read(in, "rollup.csv");
    ASSERT_EQ(rollup.groups().size(), 1u);
    ASSERT_EQ(rollup.groups()[0].rows.size(), 3u);
    EXPECT_TRUE(std::isnan(rollup.groups()[0].rows[1].values[0]));
    EXPECT_EQ(rollup.groups()[0].rows[2].values[0],
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(rollupBytes(rollup), special);
}

// ---------------------------------------------------------------------
// Report rendering.

TEST(ObsRollup, ReportIsDeterministicAndRanksChannels)
{
    campaign::ObsRollup rollup;
    const std::vector<std::string> paths = {
        "tick",
        "xbar/ch/0/busy_ticks",
        "xbar/ch/0/messages",
        "xbar/ch/1/busy_ticks",
        "xbar/ch/1/messages",
        "mesh/r/3/injection_depth",
    };
    rollup.addRun("cfg", 0, 1000, paths,
                  {1000.0, 250.0, 10.0, 750.0, 30.0, 2.0});
    rollup.addRun("cfg", 1, 1000, {},
                  {1000.0, 350.0, 14.0, 650.0, 26.0, 4.0});

    campaign::RollupReportOptions options;
    options.top = 1;
    options.probes = "xbar/ch/0/";
    std::ostringstream a, b;
    campaign::writeRollupReport(a, rollup, options);
    campaign::writeRollupReport(b, rollup, options);
    EXPECT_EQ(a.str(), b.str());

    const std::string report = a.str();
    EXPECT_NE(report.find("campaign rollup: 1 group, 2 runs"),
              std::string::npos);
    EXPECT_NE(report.find("group cfg: runs=2 probes=6"),
              std::string::npos);
    // Channel 1 is hotter on mean busy fraction (0.7 vs 0.3), and
    // top=1 keeps only it.
    EXPECT_NE(report.find("1. xbar/ch/1 busy_frac=0.7 messages=28"),
              std::string::npos);
    EXPECT_EQ(report.find("1. xbar/ch/0"), std::string::npos);
    EXPECT_NE(report.find("1. mesh/r/3 injection_depth=3"),
              std::string::npos);
    EXPECT_NE(report.find("xbar/ch/0/busy_ticks count=2 mean=300 "
                          "min=250 max=350 p95=350"),
              std::string::npos);
}

} // namespace
