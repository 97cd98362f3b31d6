/**
 * @file
 * Tests for the benchmark's own code: sample statistics (checked
 * against Python's statistics module, which recomputes the spread),
 * the metric-name and unit grammar, the result line, and the
 * correctness gate rejecting tampered results.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "metrics.hpp"

using namespace perfbench;

TEST(Stats, Median)
{
    EXPECT_DOUBLE_EQ(median({5, 1, 4, 2, 3}), 3);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_DOUBLE_EQ(median({7}), 7);
}

TEST(Stats, QuartilesMatchPythonStatisticsQuantiles)
{
    // Expected values from statistics.quantiles(v, n=4).
    auto q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q[0], 2.75);
    EXPECT_DOUBLE_EQ(q[1], 5.5);
    EXPECT_DOUBLE_EQ(q[2], 8.25);

    q = quartiles({3.5, 1.25});
    EXPECT_DOUBLE_EQ(q[0], 0.6875);
    EXPECT_DOUBLE_EQ(q[1], 2.375);
    EXPECT_DOUBLE_EQ(q[2], 4.0625);

    q = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(q[0], 1.5);
    EXPECT_DOUBLE_EQ(q[1], 3.0);
    EXPECT_DOUBLE_EQ(q[2], 4.5);

    q = quartiles({0.812, 0.799, 0.845, 0.901, 0.777, 0.8, 0.83});
    EXPECT_DOUBLE_EQ(q[0], 0.799);
    EXPECT_DOUBLE_EQ(q[1], 0.812);
    EXPECT_DOUBLE_EQ(q[2], 0.845);
}

TEST(Stats, RelativeSpread)
{
    EXPECT_DOUBLE_EQ(relativeSpread({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                     (8.25 - 2.75) / 5.5);
    EXPECT_DOUBLE_EQ(relativeSpread({2, 2, 2}), 0);
}

TEST(Grammar, MetricNames)
{
    EXPECT_TRUE(validMetricName("setup_s"));
    EXPECT_TRUE(validMetricName("osnode.cpu_share.client_comm"));
    EXPECT_TRUE(validMetricName("9lives-x.y_z"));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));

    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("quote\"d"));
    EXPECT_FALSE(validMetricName("slash/ed"));
}

TEST(Grammar, Units)
{
    for (const char *u : {"s", "ms", "1/s", "req/s", "%", "count", "B/req"})
        EXPECT_TRUE(validUnit(u)) << u;
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit(std::string(17, 's')));
    EXPECT_FALSE(validUnit("m s"));
    EXPECT_FALSE(validUnit("\"s\""));
}

TEST(MetricSet, RejectsBadNamesDuplicatesAndNonFinite)
{
    MetricSet m;
    EXPECT_TRUE(m.add("setup_s", 0.5, "s"));
    EXPECT_FALSE(m.add("setup_s", 0.6, "s"));
    EXPECT_FALSE(m.add("bad name", 1, "s"));
    EXPECT_FALSE(m.add("ok", 1, "bad unit"));
    EXPECT_FALSE(m.add("nan", std::nan(""), "s"));
    EXPECT_FALSE(
        m.add("inf", std::numeric_limits<double>::infinity(), "s"));
    ASSERT_EQ(m.all().size(), 1u);
    EXPECT_DOUBLE_EQ(m.find("setup_s")->value, 0.5);
}

TEST(MetricSet, ResultLineKeepsEveryDigit)
{
    MetricSet m;
    m.add("latency_ms", 0.1 + 0.2, "ms");
    m.add("setup_s", 0.1, "s");
    EXPECT_EQ(resultJson(true, 1000, 0, m),
              "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
              "\"metrics\": {\"latency_ms\": {\"value\": "
              "0.30000000000000004, \"unit\": \"ms\"}, \"setup_s\": "
              "{\"value\": 0.1, \"unit\": \"s\"}}}");
    EXPECT_EQ(formatNumber(1e-7), "1e-07");
}

namespace {

CellOutcome
closedCell()
{
    CellOutcome c;
    c.label = "VIA/cLAN-V5";
    c.measured = 1003;
    c.exact = {{"sim_rps", 5990.851234}, {"events", 81234}};
    return c;
}

CellOutcome
openCell()
{
    CellOutcome c = closedCell();
    c.openLoop = true;
    c.offered = 1000;
    c.warmupClients = 8;
    return c;
}

} // namespace

TEST(Gate, AcceptsCleanCells)
{
    Gate g;
    g.checkCell(closedCell(), "run 0");
    g.checkCell(openCell(), "run 0");
    g.checkSame({closedCell()}, {closedCell()}, "run 1");
    EXPECT_TRUE(g.ok());
}

TEST(Gate, RejectsLostAndMalformedRequests)
{
    CellOutcome lost = closedCell();
    lost.lost = 1;
    Gate g;
    g.checkCell(lost, "run 0");
    EXPECT_FALSE(g.ok());

    CellOutcome bad = closedCell();
    bad.bad = 2;
    Gate h;
    h.checkCell(bad, "run 0");
    EXPECT_FALSE(h.ok());
}

TEST(Gate, RejectsBrokenOpenLoopConservation)
{
    CellOutcome missing = openCell();
    missing.measured = 999; // one arrival neither answered nor dropped
    Gate g;
    g.checkCell(missing, "run 0");
    EXPECT_FALSE(g.ok());

    CellOutcome extra = openCell();
    extra.measured = extra.offered + extra.warmupClients + 1;
    Gate h;
    h.checkCell(extra, "run 0");
    EXPECT_FALSE(h.ok());

    CellOutcome stuck = openCell();
    stuck.inFlightEnd = 1;
    Gate k;
    k.checkCell(stuck, "run 0");
    EXPECT_FALSE(k.ok());

    CellOutcome exact = openCell();
    exact.warmupClients = 0;
    exact.measured = 990;
    exact.dropped = 10;
    Gate ok;
    ok.checkCell(exact, "run 0");
    EXPECT_TRUE(ok.ok());
}

TEST(Gate, RejectsATamperedRepetition)
{
    CellOutcome tampered = closedCell();
    tampered.exact[0].second = 5990.851235; // one digit in sim_rps
    Gate g;
    g.checkSame({closedCell()}, {tampered}, "run 3 (traced)");
    ASSERT_EQ(g.failures().size(), 1u);
    EXPECT_NE(g.failures()[0].find("sim_rps"), std::string::npos);

    Gate h;
    h.checkSame({closedCell()}, {closedCell(), closedCell()}, "run 4");
    EXPECT_FALSE(h.ok());
}
