/**
 * @file
 * Stress and robustness tests: deadlock freedom under minimal
 * flow-control windows, bidirectional message storms, and RMW load
 * broadcasts at cluster scale.
 */

#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using namespace press::core;

namespace {

workload::Trace
stressTrace(std::uint64_t requests)
{
    workload::TraceSpec spec;
    spec.name = "stress";
    spec.numFiles = 300;
    spec.numRequests = requests;
    spec.avgFileSize = 15000;
    spec.seed = 17;
    return workload::generateTrace(spec);
}

} // namespace

/** Deadlock freedom: with the smallest possible windows every request
 *  must still complete, for every version. */
class TinyWindows : public ::testing::TestWithParam<Version>
{
};

TEST_P(TinyWindows, EveryRequestCompletes)
{
    workload::Trace trace = stressTrace(5000);
    PressConfig c;
    c.nodes = 4;
    c.protocol = Protocol::ViaClan;
    c.version = GetParam();
    c.controlWindow = 1;
    c.fileWindow = 1;
    c.controlCreditBatch = 1;
    c.fileCreditBatch = 1;
    c.cacheBytes = 4 * util::MB;
    c.clientsPerNode = 30;
    c.warmupFraction = 0;
    PressCluster cluster(c, trace);
    auto r = cluster.run();
    std::uint64_t replies = 0;
    for (int i = 0; i < c.nodes; ++i)
        replies += cluster.server(i).stats().replies;
    EXPECT_EQ(replies, 5000u);
    EXPECT_TRUE(cluster.simulator().idle());
    EXPECT_GT(r.throughput, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, TinyWindows,
    ::testing::Values(Version::V0, Version::V1, Version::V2,
                      Version::V3, Version::V4, Version::V5),
    [](const ::testing::TestParamInfo<Version> &info) {
        return versionName(info.param);
    });

/** Tiny TCP socket buffers must not deadlock either. */
TEST(StressTcp, TinySocketBuffers)
{
    workload::Trace trace = stressTrace(5000);
    PressConfig c;
    c.nodes = 4;
    c.protocol = Protocol::TcpClan;
    c.cacheBytes = 4 * util::MB;
    c.clientsPerNode = 30;
    c.warmupFraction = 0;
    // The mesh is built inside PressCluster with the default sockbuf;
    // heavy bidirectional file traffic exercises the window path.
    PressCluster cluster(c, trace);
    cluster.run();
    std::uint64_t replies = 0;
    for (int i = 0; i < c.nodes; ++i)
        replies += cluster.server(i).stats().replies;
    EXPECT_EQ(replies, 5000u);
    EXPECT_TRUE(cluster.simulator().idle());
}

/** RMW load broadcasts must work inside a full cluster run and stay
 *  cheaper than regular ones. */
TEST(StressRmwLoads, BroadcastRmwCompletesAndHelps)
{
    workload::Trace trace = stressTrace(12000);
    PressConfig reg;
    reg.nodes = 4;
    reg.protocol = Protocol::ViaClan;
    reg.version = Version::V0;
    reg.dissemination = Dissemination::broadcast(1, /*rmw=*/false);
    reg.cacheBytes = 16 * util::MB;
    reg.clientsPerNode = 40;
    PressConfig rmw = reg;
    rmw.dissemination = Dissemination::broadcast(1, /*rmw=*/true);

    auto r_reg = PressCluster(reg, trace).run();
    auto r_rmw = PressCluster(rmw, trace).run();
    // Section 3.3: RMW load broadcasts improve L1 significantly.
    EXPECT_GT(r_rmw.throughput, r_reg.throughput);
    EXPECT_GT(r_rmw.comm.of(MsgKind::Load).msgs, 0u);
}

/** Larger-than-cutoff files mixed into the stream must be served
 *  locally and never transferred intra-cluster. */
TEST(StressLargeFiles, NeverForwarded)
{
    workload::TraceSpec spec;
    spec.numFiles = 50;
    spec.numRequests = 3000;
    spec.avgFileSize = 400000; // many files near/above the 512 KB cutoff
    spec.sizeSigma = 0.8;
    spec.maxFileSize = 4 * 1024 * 1024;
    spec.seed = 23;
    workload::Trace trace = workload::generateTrace(spec);

    PressConfig c;
    c.nodes = 4;
    c.protocol = Protocol::ViaClan;
    c.version = Version::V5;
    c.cacheBytes = 64 * util::MB;
    c.clientsPerNode = 20;
    c.warmupFraction = 0;
    PressCluster cluster(c, trace);
    cluster.run();

    std::uint64_t large = 0, replies = 0;
    for (int i = 0; i < c.nodes; ++i) {
        large += cluster.server(i).stats().largeFileServes;
        replies += cluster.server(i).stats().replies;
    }
    EXPECT_GT(large, 0u);
    EXPECT_EQ(replies, 3000u);
    // No file message may carry >= cutoff bytes.
    double avg_file_msg =
        cluster.comm(0).txStats().of(MsgKind::File).avgSize();
    EXPECT_LT(avg_file_msg, static_cast<double>(LargeFileCutoff));
}

/** Determinism holds across versions and dissemination strategies. */
TEST(StressDeterminism, RepeatedRunsIdentical)
{
    workload::Trace trace = stressTrace(4000);
    for (auto v : {Version::V0, Version::V5}) {
        PressConfig c;
        c.nodes = 3;
        c.protocol = Protocol::ViaClan;
        c.version = v;
        c.cacheBytes = 8 * util::MB;
        c.clientsPerNode = 25;
        auto a = PressCluster(c, trace).run();
        auto b = PressCluster(c, trace).run();
        EXPECT_DOUBLE_EQ(a.throughput, b.throughput);
        EXPECT_EQ(a.comm.total().bytes, b.comm.total().bytes);
    }
}
