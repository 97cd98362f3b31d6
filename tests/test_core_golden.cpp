/**
 * @file
 * Golden-stats regression test for full cluster runs.
 *
 * The event kernel's determinism contract is that every run is
 * bit-identical across kernel rewrites: same (tick, insertion-order)
 * event ordering, same RNG streams, same floating-point accumulation
 * order. These baselines were captured from complete cluster runs and
 * are compared exactly (EXPECT_EQ on doubles, no tolerance) — any
 * drift means event ordering changed somewhere, which would silently
 * invalidate cross-version bench comparisons.
 *
 * If a deliberate simulation-model change moves these numbers, rebase
 * the constants from a trusted build and say so in the commit.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "traffic/traffic_model.hpp"
#include "util/units.hpp"
#include "workload/trace_gen.hpp"

using namespace press;

namespace {

workload::Trace
goldenTrace()
{
    auto spec = workload::clarknetSpec();
    spec.numRequests = 30000;
    return workload::generateTrace(spec);
}

core::ClusterResults
runGolden(core::PressConfig config, const workload::Trace &trace,
          std::uint64_t *events, sim::Tick *now,
          std::uint64_t max_requests = 20000)
{
    core::PressCluster cluster(config, trace);
    auto r = cluster.run(max_requests);
    *events = cluster.simulator().eventsExecuted();
    *now = cluster.simulator().now();
    return r;
}

} // namespace

TEST(GoldenStats, ViaV5EightNodes)
{
    auto trace = goldenTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V5;
    config.nodes = 8;
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now);

    EXPECT_EQ(r.throughput, 776.36025347544796);
    EXPECT_EQ(r.avgLatencyMs, 857.81063838959994);
    EXPECT_EQ(r.p99LatencyMs, 4123.7166063668265);
    EXPECT_EQ(r.requestsMeasured, 20703u);
    EXPECT_EQ(r.forwardFraction, 0.27324999999999999);
    EXPECT_EQ(r.localHitFraction, 0.29339999999999999);
    EXPECT_EQ(r.diskReads, 8667u);
    EXPECT_EQ(events, 1466866u);
    EXPECT_EQ(now, 61610327825);
}

TEST(GoldenStats, TcpFastEthernetEightNodes)
{
    auto trace = goldenTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::TcpFastEthernet;
    config.nodes = 8;
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now);

    EXPECT_EQ(r.throughput, 789.01000404008744);
    EXPECT_EQ(r.avgLatencyMs, 838.33572286675053);
    EXPECT_EQ(r.p99LatencyMs, 4105.5948402680779);
    EXPECT_EQ(r.requestsMeasured, 20703u);
    EXPECT_EQ(r.forwardFraction, 0.28915000000000002);
    EXPECT_EQ(r.localHitFraction, 0.28670000000000001);
    EXPECT_EQ(r.diskReads, 8483u);
    EXPECT_EQ(events, 1725488u);
    EXPECT_EQ(now, 61002992301);
}

TEST(GoldenStats, ViaV0FourNodes)
{
    auto trace = goldenTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.nodes = 4;
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now);

    EXPECT_EQ(r.throughput, 578.84591403127808);
    EXPECT_EQ(r.avgLatencyMs, 574.84189742335059);
    EXPECT_EQ(r.p99LatencyMs, 3953.5549513259143);
    EXPECT_EQ(r.requestsMeasured, 20351u);
    EXPECT_EQ(r.forwardFraction, 0.2848);
    EXPECT_EQ(r.localHitFraction, 0.42564999999999997);
    EXPECT_EQ(r.diskReads, 5791u);
    EXPECT_EQ(events, 1029453u);
    EXPECT_EQ(now, 100009484492);
}

// The client paths beside the paper's closed loop: the LARD front-end
// (closed and open loop), the shaped open-loop engine and the client
// retry after a crash. Each takes a different route from arrival to
// reply, so each is pinned on its own.

TEST(GoldenStats, LardFrontEndClosedLoop)
{
    auto trace = goldenTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::TcpClan;
    config.distribution = core::Distribution::FrontEndLard;
    config.nodes = 4;
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 379.74331335631382);
    EXPECT_EQ(r.avgLatencyMs, 876.26952149056353);
    EXPECT_EQ(r.p99LatencyMs, 2364.4036254777475);
    EXPECT_EQ(r.requestsMeasured, 8351u);
    EXPECT_EQ(r.forwardFraction, 0.0);
    EXPECT_EQ(r.localHitFraction, 0.56017997750281212);
    EXPECT_EQ(r.diskReads, 3519u);
    EXPECT_EQ(events, 209684u);
    EXPECT_EQ(now, 49765401597);
}

TEST(GoldenStats, ShapedOpenLoopFourNodes)
{
    // Sessions, the dynamic class, the Zipf redraw and the in-flight
    // cap all at once, so every open-loop draw and counter is live.
    auto trace = goldenTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V5;
    config.nodes = 4;
    config.warmupFraction = 0.3;
    config.clientMode = core::PressConfig::ClientMode::OpenLoop;
    config.traffic = traffic::keepAliveScenario(900);
    config.traffic.dynamicFraction = 0.25;
    config.traffic.population.mode =
        traffic::PopulationSpec::Mode::Zipf;
    config.traffic.population.alphaStart = 0.9;
    config.traffic.population.alphaEnd = 0.6;
    config.traffic.population.driftOver = 4 * util::SEC;
    config.traffic.maxInFlight = 96;
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 324.13583607314354);
    EXPECT_EQ(r.avgLatencyMs, 293.80267312694809);
    EXPECT_EQ(r.p99LatencyMs, 1534.4844406783984);
    EXPECT_EQ(r.requestsMeasured, 6960u);
    EXPECT_EQ(r.forwardFraction, 0.15024965955515207);
    EXPECT_EQ(r.localHitFraction, 0.09229838099561205);
    EXPECT_EQ(r.diskReads, 3333u);
    EXPECT_EQ(r.offeredRequests, 8000u);
    EXPECT_EQ(r.droppedRequests, 1391u);
    EXPECT_EQ(events, 215316u);
    EXPECT_EQ(now, 31115941166);
}

TEST(GoldenStats, LardFrontEndOpenLoopRateCurve)
{
    auto trace = goldenTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::TcpClan;
    config.distribution = core::Distribution::FrontEndLard;
    config.nodes = 4;
    config.warmupFraction = 0.3;
    config.clientMode = core::PressConfig::ClientMode::OpenLoop;
    config.traffic = traffic::diurnalScenario(300);
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 303.28836127347154);
    EXPECT_EQ(r.avgLatencyMs, 1349.0662206222955);
    EXPECT_EQ(r.p99LatencyMs, 4241.7721979577464);
    EXPECT_EQ(r.requestsMeasured, 8350u);
    EXPECT_EQ(r.forwardFraction, 0.0);
    EXPECT_EQ(r.localHitFraction, 0.43257092863392077);
    EXPECT_EQ(r.diskReads, 4540u);
    EXPECT_EQ(r.offeredRequests, 8000u);
    EXPECT_EQ(r.droppedRequests, 0u);
    EXPECT_EQ(events, 145826u);
    EXPECT_EQ(now, 36479880317);
}

TEST(GoldenStats, ClosedLoopCrashRestartWithClientRetries)
{
    auto trace = goldenTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V5;
    config.nodes = 4;
    config.fault = fault::FaultPlan::parse("crash:1@30s;restart:1@36s");
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 280.05545638898002);
    EXPECT_EQ(r.avgLatencyMs, 1153.3746667737498);
    EXPECT_EQ(r.p99LatencyMs, 8062.1352315084487);
    EXPECT_EQ(r.requestsMeasured, 8351u);
    EXPECT_EQ(r.forwardFraction, 0.19550000000000001);
    EXPECT_EQ(r.localHitFraction, 0.23949999999999999);
    EXPECT_EQ(r.diskReads, 4520u);
    EXPECT_EQ(r.clientRetries, 81u);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_EQ(events, 394137u);
    EXPECT_EQ(now, 60941374086);
}

// The scalable carriers under churn: gossip digest rounds and tree
// waves each carry load, caching and membership news, and the crash
// and restart make all three cross the carrier (the restarted node's
// cold cache re-announces, the survivors relay the view changes).

namespace {

core::PressConfig
churnConfig(core::Dissemination dissemination)
{
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.nodes = 8;
    config.dissemination = dissemination;
    config.fault = fault::FaultPlan::parse("crash:3@16s;restart:3@22s");
    return config;
}

} // namespace

TEST(GoldenStats, GossipEightNodesCrashRestart)
{
    auto trace = goldenTrace();
    auto config = churnConfig(core::Dissemination::gossip(4));
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 462.58842768090818);
    EXPECT_EQ(r.avgLatencyMs, 1204.6692228664849);
    EXPECT_EQ(r.p99LatencyMs, 7946.5643983454793);
    EXPECT_EQ(r.requestsMeasured, 8704u);
    EXPECT_EQ(r.forwardFraction, 0.24981495188749075);
    EXPECT_EQ(r.localHitFraction, 0.18837897853441896);
    EXPECT_EQ(r.diskReads, 4554u);
    EXPECT_EQ(r.clientRetries, 106u);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_EQ(r.gossipRounds, 6352u);
    EXPECT_EQ(r.gossipRumorSends, 427048u);
    EXPECT_EQ(r.membershipSends, 54u);
    EXPECT_EQ(events, 1131108u);
    EXPECT_EQ(now, 34510457387);
}

TEST(GoldenStats, TreeEightNodesCrashRestart)
{
    auto trace = goldenTrace();
    auto config = churnConfig(core::Dissemination::tree(4));
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 435.09833320418767);
    EXPECT_EQ(r.avgLatencyMs, 1215.2744068489608);
    EXPECT_EQ(r.p99LatencyMs, 7987.147862471109);
    EXPECT_EQ(r.requestsMeasured, 8703u);
    EXPECT_EQ(r.forwardFraction, 0.28153903070662228);
    EXPECT_EQ(r.localHitFraction, 0.17400419287211741);
    EXPECT_EQ(r.diskReads, 4415u);
    EXPECT_EQ(r.clientRetries, 109u);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_EQ(r.loadWaves, 5111u);
    EXPECT_EQ(r.cachingWaves, 5117u);
    EXPECT_EQ(r.membershipSends, 52u);
    EXPECT_EQ(events, 1603669u);
    EXPECT_EQ(now, 35543229116);
}

// The sharded directory under churn. A crash walks the dead node's
// shards to the next alive id and its restart hands them back (G4); a
// graceful leave and join do the same through the drain window (PB).
// Both re-announce resident files to their new owners, and the owner
// lookups and home bounces are pinned along with the usual fields.

namespace {

core::PressConfig
shardedChurnConfig(core::Dissemination dissemination, const char *plan)
{
    auto config = churnConfig(dissemination);
    config.directoryMode = core::DirectoryMode::Sharded;
    config.fault = fault::FaultPlan::parse(plan);
    return config;
}

} // namespace

TEST(GoldenStats, ShardedGossipEightNodesCrashRestart)
{
    auto trace = goldenTrace();
    auto config = shardedChurnConfig(core::Dissemination::gossip(4),
                                     "crash:3@16s;restart:3@22s");
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 387.0187238499588);
    EXPECT_EQ(r.avgLatencyMs, 1446.8214339222504);
    EXPECT_EQ(r.p99LatencyMs, 8123.0903206956518);
    EXPECT_EQ(r.requestsMeasured, 8702u);
    EXPECT_EQ(r.forwardFraction, 0.69325000000000003);
    EXPECT_EQ(r.localHitFraction, 0.23150000000000001);
    EXPECT_EQ(r.diskReads, 5416u);
    EXPECT_EQ(r.clientRetries, 113u);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_EQ(r.dirLookups, 5149u);
    EXPECT_EQ(r.dirHomeReturns, 4813u);
    EXPECT_EQ(r.reAnnouncedFiles, 947u);
    EXPECT_EQ(r.dirEntriesTotal, 8669u);
    EXPECT_EQ(r.dirEntriesMaxPerNode, 1118u);
    EXPECT_EQ(events, 1039798u);
    EXPECT_EQ(now, 39158534746);
}

TEST(GoldenStats, ShardedPiggyBackEightNodesLeaveJoin)
{
    auto trace = goldenTrace();
    auto config = shardedChurnConfig(core::Dissemination::piggyBack(),
                                     "leave:5@16s;join:5@24s");
    std::uint64_t events = 0;
    sim::Tick now = 0;
    auto r = runGolden(config, trace, &events, &now, 8000);

    EXPECT_EQ(r.throughput, 351.09189529008364);
    EXPECT_EQ(r.avgLatencyMs, 1554.1891510303756);
    EXPECT_EQ(r.p99LatencyMs, 8168.2065370956079);
    EXPECT_EQ(r.requestsMeasured, 8703u);
    EXPECT_EQ(r.forwardFraction, 0.69862500000000005);
    EXPECT_EQ(r.localHitFraction, 0.22575000000000001);
    EXPECT_EQ(r.diskReads, 5459u);
    EXPECT_EQ(r.clientRetries, 100u);
    EXPECT_EQ(r.requestsLost, 0u);
    EXPECT_EQ(r.dirLookups, 5176u);
    EXPECT_EQ(r.dirHomeReturns, 4854u);
    EXPECT_EQ(r.reAnnouncedFiles, 921u);
    EXPECT_EQ(r.dirEntriesTotal, 8637u);
    EXPECT_EQ(r.dirEntriesMaxPerNode, 1126u);
    EXPECT_EQ(events, 508611u);
    EXPECT_EQ(now, 41369758249);
}


// Every path the comm layer can give a message, one row each: the
// Table-3 versions between the V0 and V5 goldens above (V1: the
// credit word; V2: the forward/caching rings; V3: the two-message RMW
// file transfer; V4: zero-copy receive), V3 with RMW load broadcasts
// (the load word), and the TCP/cLAN stack. Per-kind sender traffic is
// pinned with the usual fields.

namespace {

struct PathGolden {
    const char *name;
    core::Protocol protocol;
    core::Version version;
    core::Dissemination dissemination;
    double throughput;
    double avgLatencyMs;
    double p99LatencyMs;
    std::uint64_t requestsMeasured;
    double forwardFraction;
    double localHitFraction;
    std::uint64_t diskReads;
    std::uint64_t events;
    sim::Tick now;
    /** {msgs, bytes} per MsgKind: Load, Flow, Forward, Caching, File,
     *  Membership. */
    std::array<std::array<std::uint64_t, 2>,
               static_cast<int>(core::MsgKind::NumKinds)>
        kinds;
};

} // namespace

TEST(GoldenStats, EveryCommPathEightNodes)
{
    using core::Dissemination;
    using core::Protocol;
    using core::Version;
    const PathGolden rows[] = {
        {"V1", Protocol::ViaClan, Version::V1, Dissemination::piggyBack(),
         794.81030572178975, 829.26074357530013, 4127.9778987993777,
         20700u, 0.29049999999999998, 0.29094999999999999, 8371u,
         1872145u, 61087871999,
         {{{0u, 0u}, {18771u, 75084u}, {5810u, 331170u},
           {63469u, 3998547u}, {5810u, 54521243u}, {0u, 0u}}}},
        {"V2", Protocol::ViaClan, Version::V2, Dissemination::piggyBack(),
         776.55135945525637, 853.03527859930011, 4137.0640865882351,
         20703u, 0.28255000000000002, 0.28655000000000003, 8618u,
         1418188u, 61554632289,
         {{{0u, 0u}, {19114u, 76456u}, {5651u, 322107u},
           {65219u, 4108797u}, {5651u, 52229837u}, {0u, 0u}}}},
        {"V3", Protocol::ViaClan, Version::V3, Dissemination::piggyBack(),
         786.31192306430307, 832.4824305709501, 4134.0468278096669,
         20702u, 0.29630000000000001, 0.28339999999999999, 8406u,
         1441537u, 61145761138,
         {{{0u, 0u}, {23338u, 93352u}, {5926u, 337782u},
           {63721u, 4014423u}, {11852u, 56260787u}, {0u, 0u}}}},
        {"V4", Protocol::ViaClan, Version::V4, Dissemination::piggyBack(),
         792.70693862643316, 831.96497202179989, 4130.8493251937334,
         20703u, 0.29125000000000001, 0.28825000000000001, 8411u,
         1440080u, 60977749799,
         {{{0u, 0u}, {23224u, 92896u}, {5825u, 332025u},
           {63756u, 4016628u}, {11650u, 55949904u}, {0u, 0u}}}},
        {"V3-load-word", Protocol::ViaClan, Version::V3,
         Dissemination::broadcast(1, /*rmw=*/true), 779.79046241105823,
         849.12540171914998, 4130.8493251937334, 20703u,
         0.28234999999999999, 0.28854999999999997, 8582u, 4895284u,
         61291786332,
         {{{363979u, 5823664u}, {23285u, 93140u}, {5647u, 299291u},
           {64960u, 3832640u}, {11294u, 54122032u}, {0u, 0u}}}},
        {"TCP/cLAN", Protocol::TcpClan, Version::V0,
         Dissemination::piggyBack(), 785.93848714250521,
         842.7994357971005, 4124.7347436416967, 20703u,
         0.28765000000000002, 0.28605000000000003, 8527u, 1726406u,
         61017845980,
         {{{0u, 0u}, {0u, 0u}, {5753u, 327921u}, {64568u, 4067784u},
           {5753u, 54696870u}, {0u, 0u}}}},
    };

    auto trace = goldenTrace();
    for (const PathGolden &g : rows) {
        SCOPED_TRACE(g.name);
        core::PressConfig config;
        config.protocol = g.protocol;
        config.version = g.version;
        config.dissemination = g.dissemination;
        config.nodes = 8;
        std::uint64_t events = 0;
        sim::Tick now = 0;
        auto r = runGolden(config, trace, &events, &now);

        EXPECT_EQ(r.throughput, g.throughput);
        EXPECT_EQ(r.avgLatencyMs, g.avgLatencyMs);
        EXPECT_EQ(r.p99LatencyMs, g.p99LatencyMs);
        EXPECT_EQ(r.requestsMeasured, g.requestsMeasured);
        EXPECT_EQ(r.forwardFraction, g.forwardFraction);
        EXPECT_EQ(r.localHitFraction, g.localHitFraction);
        EXPECT_EQ(r.diskReads, g.diskReads);
        EXPECT_EQ(events, g.events);
        EXPECT_EQ(now, g.now);
        for (int k = 0; k < static_cast<int>(core::MsgKind::NumKinds); ++k) {
            SCOPED_TRACE(core::msgKindName(static_cast<core::MsgKind>(k)));
            EXPECT_EQ(r.comm.byKind[k].msgs, g.kinds[k][0]);
            EXPECT_EQ(r.comm.byKind[k].bytes, g.kinds[k][1]);
        }
    }
}
