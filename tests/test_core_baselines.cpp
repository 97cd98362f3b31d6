/**
 * @file
 * Tests for the comparison distribution modes: content-oblivious local
 * service and the LARD-style front-end.
 */

#include <gtest/gtest.h>

#include "check/causality_checker.hpp"
#include "check/via_checker.hpp"
#include "core/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using namespace press::core;

namespace {

workload::Trace
baselineTrace(std::uint64_t requests = 20000)
{
    workload::TraceSpec spec;
    spec.name = "baseline";
    spec.numFiles = 600;
    spec.numRequests = requests;
    spec.avgFileSize = 12000;
    spec.seed = 31;
    return workload::generateTrace(spec);
}

PressConfig
baseConfig(Distribution mode)
{
    PressConfig c;
    c.nodes = 4;
    c.distribution = mode;
    c.protocol = Protocol::TcpClan;
    c.cacheBytes = 3 * util::MB; // working set ~7 MB: exceeds one node
    c.clientsPerNode = 40;
    return c;
}

} // namespace

TEST(ObliviousMode, NoIntraClusterTraffic)
{
    workload::Trace trace = baselineTrace();
    PressCluster cluster(baseConfig(Distribution::LocalOnly), trace);
    auto r = cluster.run();
    EXPECT_EQ(r.comm.total().msgs, 0u);
    EXPECT_EQ(r.forwardFraction, 0.0);
    EXPECT_GT(r.throughput, 0);
    EXPECT_EQ(cluster.badRequests(), 0u);
}

TEST(ObliviousMode, LosesToPressWhenWorkingSetExceedsOneNode)
{
    workload::Trace trace = baselineTrace(30000);
    auto obl =
        PressCluster(baseConfig(Distribution::LocalOnly), trace).run();
    auto press_r =
        PressCluster(baseConfig(Distribution::LocalityConscious), trace)
            .run();
    // The cluster cache (4 x 3 MB) holds the 7 MB working set; a single
    // node's cannot: locality-conscious distribution must win.
    EXPECT_GT(press_r.throughput, obl.throughput);
    EXPECT_GT(obl.diskUtilization, press_r.diskUtilization);
}

TEST(LardMode, RoutesAndCompletesEverything)
{
    workload::Trace trace = baselineTrace();
    PressConfig c = baseConfig(Distribution::FrontEndLard);
    c.warmupFraction = 0;
    PressCluster cluster(c, trace);
    auto r = cluster.run();
    std::uint64_t replies = 0;
    for (int i = 0; i < c.nodes; ++i)
        replies += cluster.server(i).stats().replies;
    EXPECT_EQ(replies, trace.requests.size());
    EXPECT_EQ(r.comm.total().msgs, 0u); // no intra-cluster messages
    EXPECT_EQ(cluster.badRequests(), 0u);
    EXPECT_TRUE(cluster.simulator().idle());
}

TEST(LardMode, RunsCleanUnderBothCheckersInAbortMode)
{
    // The back-end's reply decrements the front-end's load table inline
    // from a node-domain callback; with both checkers live in Abort
    // mode any VIA rule break or sub-lookahead cross-domain edge on the
    // way panics the run.
    workload::Trace trace = baselineTrace();
    PressConfig c = baseConfig(Distribution::FrontEndLard);
    c.protocol = Protocol::ViaClan;
    c.version = Version::V5;
    c.viaCheck = ViaCheck::Abort;
    c.causality = ViaCheck::Abort;
    c.warmupFraction = 0;
    PressCluster cluster(c, trace);
    ASSERT_NE(cluster.viaChecker(), nullptr);
    ASSERT_NE(cluster.causalityChecker(), nullptr);
    cluster.run();
    EXPECT_TRUE(cluster.viaChecker()->clean());
    EXPECT_TRUE(cluster.causalityChecker()->clean());
    std::uint64_t replies = 0;
    for (int i = 0; i < c.nodes; ++i)
        replies += cluster.server(i).stats().replies;
    EXPECT_EQ(replies, trace.requests.size());
    EXPECT_EQ(cluster.badRequests(), 0u);
    EXPECT_TRUE(cluster.simulator().idle());
}

TEST(LardMode, RepliesReturnToTheRequestingClientPort)
{
    // The back-end replies straight to the client over the handed-off
    // connection, so every client port gets back exactly as many
    // replies as it sent requests, in both client modes.
    workload::Trace trace = baselineTrace();
    for (auto mode : {PressConfig::ClientMode::ClosedLoop,
                      PressConfig::ClientMode::OpenLoop}) {
        PressConfig c = baseConfig(Distribution::FrontEndLard);
        c.warmupFraction = 0;
        c.clientMode = mode;
        c.openLoopRate = 600;
        PressCluster cluster(c, trace);
        cluster.run(6000);
        ASSERT_TRUE(cluster.simulator().idle());
        std::uint64_t sent = 0;
        for (int p = c.nodes; p < 2 * c.nodes; ++p) {
            const auto &port = cluster.externalFabric().stats(p);
            EXPECT_EQ(port.messagesReceived, port.messagesSent)
                << "client port " << p;
            sent += port.messagesSent;
        }
        EXPECT_EQ(sent, 6000u);
    }
}

TEST(LardMode, BuildsLocality)
{
    workload::Trace trace = baselineTrace(30000);
    PressConfig c = baseConfig(Distribution::FrontEndLard);
    PressCluster cluster(c, trace);
    auto r = cluster.run();
    // Locality-aware routing keeps per-node caches hot even though each
    // holds only part of the working set.
    EXPECT_GT(r.localHitFraction, 0.7);
}

TEST(LardMode, BeatsOblivious)
{
    workload::Trace trace = baselineTrace(30000);
    auto lard =
        PressCluster(baseConfig(Distribution::FrontEndLard), trace)
            .run();
    auto obl =
        PressCluster(baseConfig(Distribution::LocalOnly), trace).run();
    EXPECT_GT(lard.throughput, obl.throughput);
}

TEST(LardMode, PressIsCompetitive)
{
    // The paper: PRESS within 7% of scalable LARD on 8 nodes. Allow a
    // wider band at this small test scale, but PRESS must be in LARD's
    // neighbourhood, not far behind.
    workload::Trace trace = baselineTrace(40000);
    PressConfig press_c = baseConfig(Distribution::LocalityConscious);
    press_c.protocol = Protocol::ViaClan;
    press_c.version = Version::V5;
    auto press_r = PressCluster(press_c, trace).run();
    auto lard =
        PressCluster(baseConfig(Distribution::FrontEndLard), trace)
            .run();
    EXPECT_GT(press_r.throughput, lard.throughput * 0.75);
}

TEST(Labels, DistributionVisibleInLabel)
{
    PressConfig c;
    c.distribution = Distribution::FrontEndLard;
    EXPECT_NE(c.label().find("LARD"), std::string::npos);
    c.distribution = Distribution::LocalOnly;
    EXPECT_NE(c.label().find("oblivious"), std::string::npos);
}

TEST(Heterogeneity, LoadAwareBeatsBlindOnSkewedCluster)
{
    workload::Trace trace = baselineTrace(40000);
    PressConfig pb = baseConfig(Distribution::LocalityConscious);
    pb.protocol = Protocol::ViaClan;
    pb.cacheBytes = 16 * util::MB;
    pb.cpuSpeeds = {0.4, 1.0, 0.4, 1.0};
    PressConfig nlb = pb;
    nlb.dissemination = Dissemination::none();
    auto r_pb = PressCluster(pb, trace).run();
    auto r_nlb = PressCluster(nlb, trace).run();
    EXPECT_GT(r_pb.throughput, r_nlb.throughput);
}
