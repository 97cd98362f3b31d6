/**
 * @file
 * Tests for check::CausalityChecker: cross-domain scheduling edges must
 * carry at least the declared lookahead, and fabric deliveries must
 * respect the unloaded-latency floor.
 */

#include <gtest/gtest.h>

#include "check/causality_checker.hpp"
#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

using namespace press;
using check::CausalityChecker;
using check::CausalityViolation;
using check::CheckMode;
using press::util::US;

namespace {

/** Two-domain checker with a 1 us bound each way. */
void
declareTwoDomains(CausalityChecker &checker)
{
    checker.setBound(0, 1, 1 * US);
    checker.setBound(1, 0, 1 * US);
}

} // namespace

TEST(CausalityChecker, CleanWhenEdgesMeetTheBound)
{
    sim::Simulator sim;
    CausalityChecker checker(sim, CheckMode::Record);
    declareTwoDomains(checker);
    checker.attach();

    sim.setCurrentDomain(0);
    sim.scheduleIn(1, 1 * US, [] {});      // exactly at the bound
    sim.scheduleIn(1, 5 * US, [] {});      // above it
    sim.run();

    EXPECT_TRUE(checker.clean());
    EXPECT_EQ(checker.crossDomainEdges(), 2u);
    EXPECT_EQ(checker.bound(0, 1), 1 * US);
    EXPECT_EQ(checker.bound(0, 2), -1); // undeclared pair: unbounded
}

TEST(CausalityChecker, RecordsABelowLookaheadCrossDomainEdge)
{
    sim::Simulator sim;
    CausalityChecker checker(sim, CheckMode::Record);
    declareTwoDomains(checker);
    checker.attach();

    sim.setCurrentDomain(0);
    sim.schedule(10 * US, [&sim] {
        // A same-tick cross-node mutation: the canonical race a
        // parallel kernel cannot honor.
        sim.scheduleIn(1, 0, [] {});
    });
    sim.run();

    EXPECT_FALSE(checker.clean());
    ASSERT_EQ(checker.totalViolations(), 1u);
    const CausalityViolation &v = checker.violations()[0];
    EXPECT_EQ(v.kind, CausalityViolation::Kind::BelowBound);
    EXPECT_EQ(v.from, 0);
    EXPECT_EQ(v.to, 1);
    EXPECT_EQ(v.tick, 10 * US);
    EXPECT_EQ(v.delay, 0);
    EXPECT_EQ(v.bound, 1 * US);
    EXPECT_NE(v.format().find("below-lookahead"), std::string::npos);
    EXPECT_NE(checker.report().find("0 -> 1"), std::string::npos);
}

TEST(CausalityChecker, AbortModePanicsOnFirstViolation)
{
    sim::Simulator sim;
    CausalityChecker checker(sim, CheckMode::Abort);
    declareTwoDomains(checker);
    checker.attach();

    sim.setCurrentDomain(0);
    sim.schedule(1 * US, [&sim] { sim.scheduleIn(1, 0, [] {}); });
    EXPECT_DEATH(sim.run(), "below-lookahead");
}

TEST(CausalityChecker, SameDomainAndUntaggedEdgesAreExempt)
{
    sim::Simulator sim;
    CausalityChecker checker(sim, CheckMode::Record);
    declareTwoDomains(checker);
    checker.attach();

    // Untagged setup-time scheduling: no current domain.
    sim.schedule(0, [] {});
    // Same-domain zero-delay chains are the simulator's bread and
    // butter; only cross-domain edges carry a bound.
    sim.setCurrentDomain(0);
    sim.schedule(5 * US, [&sim] { sim.schedule(0, [] {}); });
    sim.run();

    EXPECT_TRUE(checker.clean());
    EXPECT_EQ(checker.crossDomainEdges(), 0u);
    EXPECT_EQ(checker.untaggedEdges(), 1u);
}

TEST(CausalityChecker, RealFabricTrafficMeetsItsOwnWireBound)
{
    sim::Simulator sim;
    net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
    CausalityChecker checker(sim, CheckMode::Abort);
    checker.setBound(0, 1, fabric.config().wireLatency);
    checker.setBound(1, 0, fabric.config().wireLatency);
    checker.watchFabric(fabric);
    checker.attach();

    sim.setCurrentDomain(0);
    bool delivered = false;
    fabric.send(0, 1, 4096, [&delivered] { delivered = true; });
    sim.run();

    EXPECT_TRUE(delivered);
    EXPECT_TRUE(checker.clean());
    // The wire hop is the only cross-domain edge, at exactly the wire
    // latency: it meets the physical bound without slack.
    EXPECT_EQ(checker.crossDomainEdges(), 1u);
    EXPECT_GE(checker.checksPerformed(), 2u); // edge + delivery
}

TEST(CausalityChecker, FlagsADeliveryUnderTheUnloadedLatency)
{
    sim::Simulator sim;
    net::Fabric fabric(sim, net::FabricConfig::clan(), 2);
    CausalityChecker checker(sim, CheckMode::Record);
    checker.watchFabric(fabric);

    // A real Fabric cannot deliver below its floor (queueing only adds
    // time), so inject the impossible delivery straight into the
    // observer hook: 4 KB "delivered" after a tenth of its unloaded
    // latency.
    const std::uint64_t bytes = 4096;
    const sim::Tick floor = fabric.unloadedLatency(bytes);
    checker.onDeliver(fabric, 0, 1, bytes, 0, floor / 10);

    EXPECT_FALSE(checker.clean());
    ASSERT_EQ(checker.totalViolations(), 1u);
    const CausalityViolation &v = checker.violations()[0];
    EXPECT_EQ(v.kind, CausalityViolation::Kind::FabricBelowFloor);
    EXPECT_EQ(v.delay, floor / 10);
    EXPECT_EQ(v.bound, floor);
}
