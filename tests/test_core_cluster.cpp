/**
 * @file
 * Integration tests: whole-cluster runs with small workloads, checking
 * conservation laws, determinism, and the paper's qualitative ordering
 * of protocols and versions.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using namespace press::core;

namespace {

workload::Trace
smallTrace(std::uint64_t requests = 30000, std::size_t files = 800)
{
    workload::TraceSpec spec;
    spec.name = "small";
    spec.numFiles = files;
    spec.numRequests = requests;
    spec.avgFileSize = 12000;
    spec.avgRequestSize = 9000;
    spec.seed = 5;
    return workload::generateTrace(spec);
}

PressConfig
smallConfig(Protocol proto, Version v = Version::V0)
{
    PressConfig c;
    c.nodes = 4;
    c.protocol = proto;
    c.version = v;
    c.cacheBytes = 8 * util::MB;
    c.clientsPerNode = 44;
    c.warmupFraction = 0.3;
    return c;
}

} // namespace

TEST(ClusterIntegration, AllRequestsAnswered)
{
    workload::Trace trace = smallTrace(8000);
    PressConfig config = smallConfig(Protocol::ViaClan, Version::V0);
    config.warmupFraction = 0; // count the whole run: exact conservation
    PressCluster cluster(config, trace);
    auto r = cluster.run();
    std::uint64_t requests = 0, replies = 0;
    for (int i = 0; i < config.nodes; ++i) {
        requests += cluster.server(i).stats().requests;
        replies += cluster.server(i).stats().replies;
    }
    // Measured window only counts post-warm-up traffic, but request and
    // reply counts must balance within it (no lost or duplicated work).
    EXPECT_EQ(requests, replies);
    EXPECT_GT(r.throughput, 0);
    EXPECT_GT(r.requestsMeasured, 0u);
    // The simulator drained: every in-flight request completed.
    EXPECT_TRUE(cluster.simulator().idle());
}

TEST(ClusterIntegration, DeterministicAcrossRuns)
{
    workload::Trace trace = smallTrace(6000);
    PressConfig config = smallConfig(Protocol::ViaClan, Version::V3);
    ClusterResults a = PressCluster(config, trace).run();
    ClusterResults b = PressCluster(config, trace).run();
    EXPECT_EQ(a.requestsMeasured, b.requestsMeasured);
    EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.comm.total().msgs, b.comm.total().msgs);
    EXPECT_EQ(a.comm.total().bytes, b.comm.total().bytes);
}

TEST(ClusterIntegration, ForwardsProduceFiles)
{
    workload::Trace trace = smallTrace(10000);
    PressConfig config = smallConfig(Protocol::ViaClan, Version::V0);
    config.warmupFraction = 0;
    PressCluster cluster(config, trace);
    cluster.run();
    std::uint64_t fwd_out = 0, fwd_in = 0;
    for (int i = 0; i < config.nodes; ++i) {
        fwd_out += cluster.server(i).stats().forwardedOut;
        fwd_in += cluster.server(i).stats().forwardedIn;
    }
    EXPECT_EQ(fwd_out, fwd_in);
    EXPECT_GT(fwd_out, 0u);
}

TEST(ClusterIntegration, CpuBreakdownSumsToOne)
{
    workload::Trace trace = smallTrace(8000);
    PressConfig config = smallConfig(Protocol::TcpClan);
    auto r = PressCluster(config, trace).run();
    double sum = 0;
    for (double share : r.cpuShare)
        sum += share;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(r.intraCommShare(), 0.0);
    EXPECT_LT(r.intraCommShare(), 1.0);
}

TEST(ClusterIntegration, ViaBeatsTcpOnClan)
{
    workload::Trace trace = smallTrace();
    auto tcp =
        PressCluster(smallConfig(Protocol::TcpClan), trace).run();
    auto via =
        PressCluster(smallConfig(Protocol::ViaClan), trace).run();
    EXPECT_GT(via.throughput, tcp.throughput);
    // And VIA burns a smaller share of CPU on intra-cluster comm.
    EXPECT_LT(via.intraCommShare(), tcp.intraCommShare());
}

TEST(ClusterIntegration, ZeroCopyVersionsImproveThroughput)
{
    workload::Trace trace = smallTrace();
    auto v0 = PressCluster(smallConfig(Protocol::ViaClan, Version::V0),
                           trace)
                  .run();
    auto v4 = PressCluster(smallConfig(Protocol::ViaClan, Version::V4),
                           trace)
                  .run();
    auto v5 = PressCluster(smallConfig(Protocol::ViaClan, Version::V5),
                           trace)
                  .run();
    EXPECT_GT(v4.throughput, v0.throughput);
    EXPECT_GE(v5.throughput, v4.throughput * 0.98);
    EXPECT_GT(v5.throughput, v0.throughput * 1.02);
}

TEST(ClusterIntegration, RmwFileVersionsDoubleFileMessages)
{
    workload::Trace trace = smallTrace(10000);
    auto v2 = PressCluster(smallConfig(Protocol::ViaClan, Version::V2),
                           trace)
                  .run();
    auto v3 = PressCluster(smallConfig(Protocol::ViaClan, Version::V3),
                           trace)
                  .run();
    double per_file_v2 =
        static_cast<double>(v2.comm.of(MsgKind::File).msgs);
    double per_file_v3 =
        static_cast<double>(v3.comm.of(MsgKind::File).msgs);
    // Table 4: the RMW file scheme sends two messages per file.
    EXPECT_NEAR(per_file_v3 /
                    std::max(1.0, static_cast<double>(
                                      v3.requestsMeasured)) /
                    (per_file_v2 /
                     std::max(1.0, static_cast<double>(
                                       v2.requestsMeasured))),
                2.0, 0.35);
}

TEST(ClusterIntegration, TcpHasNoFlowMessages)
{
    workload::Trace trace = smallTrace(6000);
    auto r = PressCluster(smallConfig(Protocol::TcpClan), trace).run();
    EXPECT_EQ(r.comm.of(MsgKind::Flow).msgs, 0u);
    auto v = PressCluster(smallConfig(Protocol::ViaClan), trace).run();
    EXPECT_GT(v.comm.of(MsgKind::Flow).msgs, 0u);
}

TEST(ClusterIntegration, PiggyBackBeatsAggressiveBroadcast)
{
    workload::Trace trace = smallTrace();
    PressConfig pb = smallConfig(Protocol::ViaClan);
    PressConfig l1 = pb;
    l1.dissemination = Dissemination::broadcast(1);
    auto rpb = PressCluster(pb, trace).run();
    auto rl1 = PressCluster(l1, trace).run();
    // Figure 4: piggy-backed loads win, and L1 sends vastly more load
    // messages.
    EXPECT_GT(rpb.throughput, rl1.throughput);
    EXPECT_EQ(rpb.comm.of(MsgKind::Load).msgs, 0u);
    EXPECT_GT(rl1.comm.of(MsgKind::Load).msgs,
              rl1.requestsMeasured);
}

TEST(ClusterIntegration, HigherThresholdFewerLoadMessages)
{
    workload::Trace trace = smallTrace(15000);
    PressConfig base = smallConfig(Protocol::ViaClan);
    std::uint64_t prev = UINT64_MAX;
    for (int threshold : {1, 4, 16}) {
        PressConfig c = base;
        c.dissemination = Dissemination::broadcast(threshold);
        auto r = PressCluster(c, trace).run();
        EXPECT_LT(r.comm.of(MsgKind::Load).msgs, prev);
        prev = r.comm.of(MsgKind::Load).msgs;
    }
}

TEST(ClusterIntegration, SingleNodeClusterWorks)
{
    workload::Trace trace = smallTrace(4000, 300);
    PressConfig c = smallConfig(Protocol::ViaClan, Version::V5);
    c.nodes = 1;
    auto r = PressCluster(c, trace).run();
    EXPECT_GT(r.throughput, 0);
    EXPECT_EQ(r.comm.total().msgs, 0u); // nobody to talk to
    EXPECT_EQ(r.forwardFraction, 0.0);
}

TEST(ClusterIntegration, LatencyReported)
{
    workload::Trace trace = smallTrace(6000);
    auto r = PressCluster(smallConfig(Protocol::ViaClan), trace).run();
    EXPECT_GT(r.avgLatencyMs, 0.1);
    EXPECT_LT(r.avgLatencyMs, 10000.0);
}

/** Property sweep over cluster sizes: conservation + sane throughput
 *  scaling. */
class ClusterSizes : public ::testing::TestWithParam<int>
{
};

TEST_P(ClusterSizes, ConservationAndScaling)
{
    int n = GetParam();
    workload::Trace trace = smallTrace(4000 * n, 600);
    PressConfig c = smallConfig(Protocol::ViaClan, Version::V5);
    c.nodes = n;
    c.warmupFraction = 0;
    PressCluster cluster(c, trace);
    auto r = cluster.run();
    std::uint64_t requests = 0, replies = 0;
    for (int i = 0; i < n; ++i) {
        requests += cluster.server(i).stats().requests;
        replies += cluster.server(i).stats().replies;
    }
    EXPECT_EQ(requests, replies);
    EXPECT_GT(r.throughput, 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ClusterSizes,
                         ::testing::Values(1, 2, 4, 8));

TEST(OpenLoop, LowLoadHasLowLatencyAndMatchesOfferedRate)
{
    workload::Trace trace = smallTrace(20000);
    PressConfig c = smallConfig(Protocol::ViaClan, Version::V5);
    c.cacheBytes = 32 * util::MB; // hold the working set: no disk queue
    c.clientMode = PressConfig::ClientMode::OpenLoop;
    c.openLoopRate = 800; // far below capacity
    PressCluster cluster(c, trace);
    auto r = cluster.run();
    // Throughput tracks the offered rate, not the capacity.
    EXPECT_NEAR(r.throughput, 800, 120);
    // Mean latency stays far from saturation levels. (It is not pure
    // service time: Zipf-tail first touches still hit the 20 ms disk
    // during measurement and queue briefly behind each other.)
    EXPECT_LT(r.avgLatencyMs, 100.0);
    EXPECT_TRUE(cluster.simulator().idle());
}

TEST(OpenLoop, EveryArrivalAnswered)
{
    workload::Trace trace = smallTrace(5000);
    PressConfig c = smallConfig(Protocol::TcpClan);
    c.clientMode = PressConfig::ClientMode::OpenLoop;
    c.openLoopRate = 1500;
    c.warmupFraction = 0;
    PressCluster cluster(c, trace);
    cluster.run();
    std::uint64_t replies = 0;
    for (int i = 0; i < c.nodes; ++i)
        replies += cluster.server(i).stats().replies;
    EXPECT_EQ(replies, 5000u);
}

TEST(HttpWire, NoBadRequestsInNormalRuns)
{
    workload::Trace trace = smallTrace(4000);
    PressCluster cluster(smallConfig(Protocol::ViaClan), trace);
    cluster.run();
    EXPECT_EQ(cluster.badRequests(), 0u);
    // The site map resolves every trace file.
    EXPECT_EQ(cluster.siteMap().count(), trace.files.count());
}

TEST(StatsDump, ContainsKeyCounters)
{
    workload::Trace trace = smallTrace(3000);
    PressCluster cluster(smallConfig(Protocol::ViaClan, Version::V5),
                         trace);
    cluster.run();
    std::ostringstream os;
    cluster.dumpStats(os);
    std::string dump = os.str();
    EXPECT_NE(dump.find("node0.cpu.util"), std::string::npos);
    EXPECT_NE(dump.find("node3.press.replies"), std::string::npos);
    EXPECT_NE(dump.find("comm.tx.File.msgs"), std::string::npos);
    EXPECT_NE(dump.find("disk.reads"), std::string::npos);
}

TEST(ClusterIntegration, LatencyPercentilesOrdered)
{
    workload::Trace trace = smallTrace(6000);
    auto r = PressCluster(smallConfig(Protocol::ViaClan), trace).run();
    EXPECT_GT(r.p50LatencyMs, 0.0);
    EXPECT_GE(r.p99LatencyMs, r.p50LatencyMs);
}
