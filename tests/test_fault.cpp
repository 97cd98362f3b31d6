/**
 * @file
 * Tests of the fault-tolerance subsystem: FaultPlan construction and
 * validation, RetryPolicy backoff, MembershipView merge rules, and
 * full-cluster churn scenarios. The churn scenarios carry the
 * subsystem's two contracts: zero lost requests (every request issued
 * to a crashed node is eventually answered via server-side retry or
 * client re-issue) and determinism (a faulty run is byte-identical
 * across reruns and the tick-race hunter's equal-tick permutations).
 */

#include <gtest/gtest.h>

#include <bit>
#include <sstream>
#include <string>

#include "check/tick_race.hpp"
#include "core/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "fault/membership.hpp"
#include "obs/trace_io.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using fault::FaultKind;
using fault::FaultPlan;
using fault::MembershipView;
using fault::NodeState;
using fault::PlanError;

// ---------------------------------------------------------------------
// FaultPlan: grammar, validation, epochs, backoff
// ---------------------------------------------------------------------

TEST(FaultPlan, ParseRoundTripsThroughSpec)
{
    FaultPlan plan =
        FaultPlan::parse("crash:3@2s;crash:5@2500ms;restart:3@4s");
    ASSERT_EQ(plan.size(), 3u);
    EXPECT_EQ(plan.events()[0].kind, FaultKind::Crash);
    EXPECT_EQ(plan.events()[0].node, 3);
    EXPECT_EQ(plan.events()[0].at, 2 * util::SEC);
    EXPECT_EQ(plan.events()[1].at, 2500 * util::MS);
    EXPECT_EQ(plan.events()[2].kind, FaultKind::Restart);

    FaultPlan again = FaultPlan::parse(plan.spec());
    ASSERT_EQ(again.size(), plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(again.events()[i].kind, plan.events()[i].kind);
        EXPECT_EQ(again.events()[i].node, plan.events()[i].node);
        EXPECT_EQ(again.events()[i].at, plan.events()[i].at);
    }
}

TEST(FaultPlan, ParseAcceptsAllUnitsAndVerbs)
{
    FaultPlan plan = FaultPlan::parse(
        "leave:1@500us;join:1@80ms;crash:2@1s;restart:2@2s");
    ASSERT_EQ(plan.size(), 4u);
    EXPECT_EQ(plan.events()[0].kind, FaultKind::Leave);
    EXPECT_EQ(plan.events()[0].at, 500 * util::US);
    EXPECT_EQ(plan.events()[1].kind, FaultKind::Join);
    EXPECT_EQ(plan.events()[1].at, 80 * util::MS);
}

TEST(FaultPlan, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(FaultPlan::parse("explode:1@2s"), PlanError);
    EXPECT_THROW(FaultPlan::parse("crash:1"), PlanError);
    EXPECT_THROW(FaultPlan::parse("crash@2s"), PlanError);
    EXPECT_THROW(FaultPlan::parse("crash:1@2parsecs"), PlanError);
    EXPECT_THROW(FaultPlan::parse("crash:x@2s"), PlanError);
    EXPECT_THROW(FaultPlan::parse(";"), PlanError);
}

TEST(FaultPlan, ValidateEnforcesTheNodeStateMachine)
{
    // Node id out of range.
    EXPECT_THROW(FaultPlan().crash(9, util::SEC).validate(8), PlanError);
    // Crash while already down.
    EXPECT_THROW(FaultPlan()
                     .crash(1, util::SEC)
                     .crash(1, 2 * util::SEC)
                     .validate(8),
                 PlanError);
    // Restart while up.
    EXPECT_THROW(FaultPlan().restart(1, util::SEC).validate(8),
                 PlanError);
    // Revive before the drain gap.
    EXPECT_THROW(FaultPlan()
                     .crash(1, util::SEC)
                     .restart(1, util::SEC + FaultPlan::minReviveGap / 2)
                     .validate(8),
                 PlanError);
    // Never every node down at once.
    EXPECT_THROW(
        FaultPlan().crash(0, util::SEC).crash(1, util::SEC).validate(2),
        PlanError);
    // A well-formed plan passes.
    EXPECT_NO_THROW(FaultPlan()
                        .crash(1, util::SEC)
                        .restart(1, 2 * util::SEC)
                        .validate(8));
}

TEST(FaultPlan, TimelineAssignsGlobalEpochsInTickOrder)
{
    FaultPlan plan;
    plan.crash(5, 3 * util::SEC); // inserted first, fires last
    plan.crash(1, util::SEC);
    plan.restart(1, 2 * util::SEC);
    auto line = plan.timeline();
    ASSERT_EQ(line.size(), 3u);
    EXPECT_EQ(line[0].node, 1);
    EXPECT_EQ(line[0].epoch, 1u);
    EXPECT_EQ(line[1].kind, FaultKind::Restart);
    EXPECT_EQ(line[1].epoch, 2u);
    EXPECT_EQ(line[2].node, 5);
    EXPECT_EQ(line[2].epoch, 3u);
}

TEST(FaultPlan, RetryPolicyDoublesUpToTheCap)
{
    fault::RetryPolicy p;
    p.base = 500 * util::US;
    p.cap = 8 * util::MS;
    EXPECT_EQ(p.delayFor(0), 500 * util::US);
    EXPECT_EQ(p.delayFor(1), 1 * util::MS);
    EXPECT_EQ(p.delayFor(2), 2 * util::MS);
    EXPECT_EQ(p.delayFor(4), 8 * util::MS);
    EXPECT_EQ(p.delayFor(10), 8 * util::MS); // capped
    EXPECT_EQ(p.delayFor(-3), 500 * util::US);
}

// ---------------------------------------------------------------------
// MembershipView: order-free merge
// ---------------------------------------------------------------------

TEST(Membership, MergesByEpochThenStateRank)
{
    MembershipView v(4, 0);
    EXPECT_TRUE(v.apply(2, NodeState::Suspected, 1, 10));
    // Same epoch, more advanced state: accepted.
    EXPECT_TRUE(v.apply(2, NodeState::Dead, 1, 20));
    // Same epoch, regression: rejected.
    EXPECT_FALSE(v.apply(2, NodeState::Suspected, 1, 30));
    // Higher epoch always wins, even back to Alive.
    EXPECT_TRUE(v.apply(2, NodeState::Alive, 2, 40));
    EXPECT_FALSE(v.apply(2, NodeState::Dead, 1, 50)); // stale rumor
    EXPECT_EQ(v.state(2), NodeState::Alive);
    EXPECT_EQ(v.epoch(2), 2u);
}

TEST(Membership, ConvergesToTheSameFixedPointInAnyOrder)
{
    // The same three rumors in two arrival orders must agree.
    MembershipView a(4, 0), b(4, 1);
    a.apply(3, NodeState::Dead, 4, 10);
    a.apply(3, NodeState::Suspected, 4, 11);
    a.apply(3, NodeState::Alive, 5, 12);

    b.apply(3, NodeState::Alive, 5, 10);
    b.apply(3, NodeState::Dead, 4, 11);
    b.apply(3, NodeState::Suspected, 4, 12);

    EXPECT_EQ(a.state(3), b.state(3));
    EXPECT_EQ(a.epoch(3), b.epoch(3));
    EXPECT_EQ(a.state(3), NodeState::Alive);
}

TEST(Membership, TracksDeadSinceAndAliveCount)
{
    MembershipView v(4, 0);
    EXPECT_EQ(v.aliveCount(), 4);
    EXPECT_EQ(v.deadSince(2), 0);
    v.apply(2, NodeState::Dead, 1, 77);
    EXPECT_EQ(v.aliveCount(), 3);
    EXPECT_EQ(v.deadSince(2), 77);
    EXPECT_FALSE(v.aliveNode(2));
    v.apply(1, NodeState::Left, 2, 99);
    EXPECT_EQ(v.aliveCount(), 2);
    EXPECT_EQ(v.deadSince(1), 99);
}

// ---------------------------------------------------------------------
// Cluster churn scenarios
// ---------------------------------------------------------------------

namespace {

workload::Trace
churnTrace()
{
    auto spec = workload::clarknetSpec();
    spec.numRequests = 8000;
    return workload::generateTrace(spec);
}

/** 8 nodes, kill nodes 1 and 2 mid-trace, restart them later. */
core::PressConfig
churnConfig()
{
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V5;
    config.nodes = 8;
    config.clientsPerNode = 4;
    config.warmupFraction = 0.0; // fault ticks are absolute sim time
    config.fault.crash(1, 200 * util::MS)
        .crash(2, 210 * util::MS)
        .restart(1, 600 * util::MS)
        .restart(2, 610 * util::MS);
    return config;
}

/** Everything a churn run can show the outside world, as one string. */
std::string
churnFingerprint(core::PressConfig config, const workload::Trace &trace)
{
    config.trace = true;
    core::PressCluster cluster(config, trace);
    auto r = cluster.run(8000);

    std::ostringstream fp;
    fp.precision(17);
    fp << "throughput " << r.throughput << "\n";
    fp << "p99_ms " << r.p99LatencyMs << "\n";
    fp << "p999_ms " << r.p999LatencyMs << "\n";
    fp << "measured " << r.requestsMeasured << "\n";
    fp << "lost " << r.requestsLost << "\n";
    fp << "retried " << r.requestsRetried << "\n";
    fp << "client_retries " << r.clientRetries << "\n";
    fp << "stale " << r.staleDrops << "\n";
    fp << "membership " << r.membershipSends << "\n";
    fp << "reannounced " << r.reAnnouncedFiles << "\n";
    fp << "dropped " << r.droppedSends << "\n";
    fp << "view_ms " << r.viewConvergeMs << "\n";
    for (auto b : r.replyBuckets)
        fp << b << " ";
    fp << "\n";
    fp << "events " << cluster.simulator().eventsExecuted() << "\n";
    fp << "now " << cluster.simulator().now() << "\n";
    cluster.dumpStats(fp);
    if (r.trace)
        obs::writeTrace(fp, *r.trace);
    return fp.str();
}

core::ClusterResults
runChurn(core::PressConfig config, const workload::Trace &trace)
{
    core::PressCluster cluster(config, trace);
    return cluster.run(8000);
}

} // namespace

TEST(FaultCluster, ChurnLosesNoRequestsAndRecovers)
{
    auto trace = churnTrace();
    core::PressConfig config = churnConfig();
    auto r = runChurn(config, trace);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_GT(r.requestsMeasured, 0u);
    // The dead-node scan re-issued what the crashed nodes dropped.
    EXPECT_GT(r.clientRetries, 0u);
    // Every survivor marked both dead nodes within the detector bound.
    EXPECT_GT(r.viewConvergeMs, 0.0);
    EXPECT_LE(r.viewConvergeMs,
              static_cast<double>(config.fault.suspectDelay +
                                  config.fault.confirmDelay) /
                      1e6 +
                  1.0);
    EXPECT_FALSE(r.replyBuckets.empty());
}

TEST(FaultCluster, ChurnIsByteIdenticalAcrossReruns)
{
    auto trace = churnTrace();
    std::string a = churnFingerprint(churnConfig(), trace);
    std::string b = churnFingerprint(churnConfig(), trace);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(FaultCluster, ChurnSurvivesTickRacePermutations)
{
    // Gossip dissemination + sharded directory is the widest fault
    // surface: rumor relays, shard remaps, and re-announcements all
    // ride cross-domain messages at equal ticks.
    auto trace = churnTrace();
    core::PressConfig base = churnConfig();
    base.version = core::Version::V0;
    base.dissemination = core::Dissemination::gossip();
    base.directoryMode = core::DirectoryMode::Sharded;

    check::TickRaceHunter::Options opts;
    opts.seeds = 4;
    check::TickRaceHunter hunter(opts);
    hunter.addScenario(
        "churn/gossip-shard",
        [&base, &trace](sim::TieBreak policy, std::uint64_t seed) {
            core::PressConfig config = base;
            config.tieBreak = policy;
            config.tieBreakSeed = seed;
            config.trace = true;
            config.viaCheck = core::ViaCheck::Off;

            core::PressCluster cluster(config, trace);
            auto r = cluster.run(8000);

            check::RunFingerprint fp;
            fp.eventsExecuted = cluster.simulator().eventsExecuted();
            fp.finalTick = cluster.simulator().now();
            std::uint64_t h = 0;
            h = check::hashCombine(
                h, std::bit_cast<std::uint64_t>(r.throughput));
            h = check::hashCombine(
                h, std::bit_cast<std::uint64_t>(r.p99LatencyMs));
            h = check::hashCombine(h, r.requestsMeasured);
            h = check::hashCombine(h, r.requestsLost);
            h = check::hashCombine(h, r.requestsRetried);
            h = check::hashCombine(h, r.clientRetries);
            h = check::hashCombine(h, r.membershipSends);
            fp.resultsHash = h;
            std::ostringstream headline;
            headline.precision(17);
            headline << "tput " << r.throughput << " lost "
                     << r.requestsLost << " retried "
                     << r.requestsRetried;
            fp.headline = headline.str();
            fp.trace = r.trace;
            return fp;
        });
    EXPECT_TRUE(hunter.run()) << hunter.report();
}

TEST(FaultCluster, ShardedDirectoryRebuildsAfterChurn)
{
    auto trace = churnTrace();
    core::PressConfig config = churnConfig();
    config.version = core::Version::V0;
    config.dissemination = core::Dissemination::gossip();
    config.directoryMode = core::DirectoryMode::Sharded;
    auto r = runChurn(config, trace);
    EXPECT_EQ(r.requestsLost, 0u);
    // Shard remap + handback re-announced moved ownership.
    EXPECT_GT(r.reAnnouncedFiles, 0u);
}

TEST(FaultCluster, TcpChurnLosesNoRequests)
{
    auto trace = churnTrace();
    core::PressConfig config = churnConfig();
    config.protocol = core::Protocol::TcpClan;
    config.version = core::Version::V0;
    auto r = runChurn(config, trace);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_GT(r.clientRetries, 0u);
}

TEST(FaultCluster, GracefulLeaveAndJoinLosesNoRequests)
{
    auto trace = churnTrace();
    core::PressConfig config = churnConfig();
    config.fault = FaultPlan();
    config.fault.leave(3, 200 * util::MS).join(3, 600 * util::MS);
    auto r = runChurn(config, trace);
    EXPECT_EQ(r.requestsLost, 0u);
}

// Regression: a node that is down while another node leaves learns of
// the departure only through the rejoin view-sync, whose Left entry
// used to be a pure no-op — the rejoiner kept routing shard lookups to
// the departed node forever and every client slot eventually stranded
// there. The Left apply path now schedules the hard teardown itself
// (epoch-gated against the survivors' pre-scheduled one).
TEST(FaultCluster, CrashOverlappingLeaveLosesNoRequests)
{
    auto trace = churnTrace();
    core::PressConfig config = churnConfig();
    config.version = core::Version::V0;
    config.dissemination = core::Dissemination::gossip();
    config.directoryMode = core::DirectoryMode::Sharded;
    config.fault = FaultPlan();
    config.fault.crash(1, 200 * util::MS)
        .leave(3, 250 * util::MS)
        .restart(1, 600 * util::MS);
    auto r = runChurn(config, trace);
    EXPECT_EQ(r.requestsLost, 0u);
}

TEST(FaultCluster, EmptyPlanDisablesTheFaultMachinery)
{
    auto trace = churnTrace();
    core::PressConfig config = churnConfig();
    config.fault = FaultPlan();
    auto r = runChurn(config, trace);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_EQ(r.clientRetries, 0u);
    EXPECT_EQ(r.membershipSends, 0u);
    EXPECT_TRUE(r.replyBuckets.empty());
}
