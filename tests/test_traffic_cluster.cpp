/**
 * @file
 * Full-cluster tests of the open-loop traffic engine: the shaped
 * scenarios must stay byte-identical across reruns and the tick-race
 * hunter's equal-tick permutations; the flash-crowd scenario must
 * cross the T = 80 overload-replication pivot during the spike and
 * nowhere before it; keep-alive sessions must skip exactly the
 * connection-setup share of mu_p; the dynamic request class must
 * bypass the storage path; the client-side in-flight cap must shed
 * load without losing accounting; and a crash inside the measured
 * window must not strand an open-loop request.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "check/tick_race.hpp"
#include "core/cluster.hpp"
#include "core/press_server.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace_io.hpp"
#include "traffic/traffic_model.hpp"
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
openConfig()
{
    PressConfig c;
    c.nodes = 4;
    c.protocol = Protocol::ViaClan;
    c.version = Version::V5;
    c.cacheBytes = 8 * util::MB;
    c.clientsPerNode = 44;
    c.warmupFraction = 0.3;
    c.clientMode = PressConfig::ClientMode::OpenLoop;
    return c;
}

/** Everything a shaped open-loop run can show the outside world. */
std::string
trafficFingerprint(PressConfig config, const workload::Trace &trace,
                   std::uint64_t max_requests)
{
    config.trace = true;
    PressCluster cluster(config, trace);
    auto r = cluster.run(max_requests);

    std::ostringstream fp;
    fp.precision(17);
    fp << "throughput " << r.throughput << "\n";
    fp << "p50_ms " << r.p50LatencyMs << "\n";
    fp << "p99_ms " << r.p99LatencyMs << "\n";
    fp << "p999_ms " << r.p999LatencyMs << "\n";
    fp << "measured " << r.requestsMeasured << "\n";
    fp << "offered " << r.offeredRequests << "\n";
    fp << "offered_rate " << r.offeredRate << "\n";
    fp << "dropped " << r.droppedRequests << "\n";
    fp << "inflight " << r.inFlightPeak << " " << r.inFlightEnd << "\n";
    fp << "sessions " << r.sessionsClosed << "\n";
    fp << "keepalive " << r.keepAliveRequests << "\n";
    fp << "dynamic " << r.dynamicRequests << "\n";
    fp << "overload " << r.overloadServes << "\n";
    fp << "events " << cluster.simulator().eventsExecuted() << "\n";
    fp << "now " << cluster.simulator().now() << "\n";
    cluster.dumpStats(fp);
    if (r.trace)
        obs::writeTrace(fp, *r.trace);
    return fp.str();
}

/** Swallows intra-cluster traffic; single-node rigs never send any. */
class NullComm : public ClusterComm
{
  public:
  protected:
    void post(int, WireMsg &&, std::uint64_t) override {}
};

} // namespace

TEST(TrafficCluster, FlashRunIsByteIdenticalAcrossReruns)
{
    auto trace = smallTrace(20000);
    PressConfig config = openConfig();
    config.traffic = traffic::flashScenario(1800);
    std::string a = trafficFingerprint(config, trace, 5000);
    std::string b = trafficFingerprint(config, trace, 5000);
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(TrafficCluster, KeepAliveSurvivesTickRacePermutations)
{
    // Sessions are the widest new surface: think-timer wakeups, span
    // begin/end bookkeeping, and handshake bytes all ride cross-domain
    // messages that can collide at equal ticks.
    auto trace = smallTrace(20000);
    PressConfig base = openConfig();
    base.traffic = traffic::keepAliveScenario(1000);

    check::TickRaceHunter::Options opts;
    opts.seeds = 4;
    check::TickRaceHunter hunter(opts);
    hunter.addScenario(
        "traffic/keepalive",
        [&base, &trace](sim::TieBreak policy, std::uint64_t seed) {
            PressConfig config = base;
            config.tieBreak = policy;
            config.tieBreakSeed = seed;
            config.trace = true;
            config.viaCheck = ViaCheck::Off;
            PressCluster cluster(config, trace);
            auto r = cluster.run(1500);

            check::RunFingerprint fp;
            fp.eventsExecuted = cluster.simulator().eventsExecuted();
            fp.finalTick = cluster.simulator().now();
            std::uint64_t h = 0;
            h = check::hashCombine(
                h, std::bit_cast<std::uint64_t>(r.throughput));
            h = check::hashCombine(
                h, std::bit_cast<std::uint64_t>(r.p99LatencyMs));
            h = check::hashCombine(h, r.requestsMeasured);
            h = check::hashCombine(h, r.offeredRequests);
            h = check::hashCombine(h, r.sessionsClosed);
            h = check::hashCombine(h, r.keepAliveRequests);
            fp.resultsHash = h;
            std::ostringstream headline;
            headline.precision(17);
            headline << "tput " << r.throughput << " sessions "
                     << r.sessionsClosed << " keepalive "
                     << r.keepAliveRequests;
            fp.headline = headline.str();
            fp.trace = r.trace;
            return fp;
        });
    EXPECT_TRUE(hunter.run()) << hunter.report();
}

TEST(TrafficCluster, KeepAliveSkipsConnectionSetupExactly)
{
    // Two single-node rigs serve the same cold file; the only cost
    // difference is the accept/teardown share of mu_p, so the latency
    // gap must equal ServiceCosts::connSetup to the tick.
    sim::Tick latency[2];
    for (int reused = 0; reused < 2; ++reused) {
        PressConfig config;
        config.nodes = 1;
        config.cacheBytes = util::MB;
        sim::Simulator sim;
        osnode::Node node(sim, 0);
        storage::FileSet files({10000, 20000, 30000});
        NullComm comm;
        PressServer server(sim, config, 0, node, files, comm, 99);
        RequestOptions opts;
        opts.keepAlive = reused == 1;
        server.handleClientRequest(1, [](std::uint64_t) {}, opts);
        sim.run();
        ASSERT_EQ(server.stats().latency.count(), 1u);
        latency[reused] =
            static_cast<sim::Tick>(server.stats().latency.sum());
    }
    PressConfig config;
    EXPECT_EQ(latency[0] - latency[1], config.calibration.service.connSetup);
}

TEST(TrafficCluster, SessionsConserveRequestAccounting)
{
    auto trace = smallTrace(20000);
    PressConfig config = openConfig();
    config.warmupFraction = 0; // no closed-loop stragglers: exact counts
    config.traffic = traffic::keepAliveScenario(1200);
    PressCluster cluster(config, trace);
    auto r = cluster.run(4000);

    EXPECT_GT(r.sessionsClosed, 0u);
    EXPECT_GT(r.keepAliveRequests, 0u);
    // Unbounded in-flight: every arrival is eventually answered.
    EXPECT_EQ(r.droppedRequests, 0u);
    EXPECT_EQ(r.requestsMeasured, r.offeredRequests);
    EXPECT_EQ(r.inFlightEnd, 0u);
    EXPECT_TRUE(cluster.simulator().idle());

    // Each session's opening request pays the handshake; every later
    // request in it rides the kept-alive connection.
    std::uint64_t opened = 0, closed = 0;
    for (int i = 0; i < config.nodes; ++i) {
        opened += cluster.server(i).stats().sessionsOpened;
        closed += cluster.server(i).stats().sessionsClosed;
    }
    EXPECT_GT(opened, 0u);
    EXPECT_EQ(opened + r.keepAliveRequests, r.offeredRequests);
    // Sessions cut short by the end of the feed never close.
    EXPECT_LE(r.sessionsClosed, opened);
    EXPECT_EQ(r.sessionsClosed, closed);
}

TEST(TrafficCluster, FlashCrowdCrossesTheOverloadPivotMidRun)
{
    auto trace = smallTrace(20000);

    // The 4-node V5 knee sits near 1540 req/s: a base of 800 keeps the
    // pre-spike phase healthy while the 3x flash peak (2400 req/s, 85%
    // of it on 8 files) sails past it.
    // Control: the same average load without the spike or the hot set
    // stays comfortably under the T = 80 pivot.
    PressConfig steady = openConfig();
    steady.traffic = traffic::steadyScenario(800);
    auto rs = PressCluster(steady, trace).run(5000);

    PressConfig flash = steady;
    flash.traffic = traffic::flashScenario(800);
    flash.trace = true;
    flash.traceEventsPerNode = 1u << 17;
    PressCluster cluster(flash, trace);
    auto rf = cluster.run(5000);

    // The spike triggers overload replication; steady traffic does not.
    EXPECT_GT(rf.overloadServes, 20u);
    EXPECT_GT(rf.overloadServes, 10 * std::max<std::uint64_t>(
                                          rs.overloadServes, 1));

    // Timing: the pivot is crossed inside the spike window and never
    // before the crowd arrives (1500 ms after the warm-up barrier, per
    // flashScenario).
    ASSERT_TRUE(rf.trace != nullptr);
    const sim::Tick spike_start = rf.measureStartTick + 1500 * util::MS;
    const sim::Tick spike_end = spike_start + (150 + 600 + 300) * util::MS;
    std::uint64_t before = 0, during = 0;
    for (const auto &ring : rf.trace->events)
        for (const auto &ev : ring) {
            if (ev.code != obs::Ev::ReqDispatch ||
                ev.arg != static_cast<std::uint64_t>(
                              obs::DispatchDecision::OverloadLocal))
                continue;
            if (ev.tick < spike_start)
                ++before;
            else if (ev.tick <= spike_end)
                ++during;
        }
    EXPECT_EQ(before, 0u);
    EXPECT_GT(during, 0u);
}

TEST(TrafficCluster, DynamicClassBypassesTheStoragePath)
{
    auto trace = smallTrace(20000);
    PressConfig config = openConfig();
    config.warmupFraction = 0; // no closed-loop warm-up disk traffic
    config.traffic = traffic::steadyScenario(2000);
    auto rs = PressCluster(config, trace).run(5000);
    EXPECT_GT(rs.diskReads, 0u);
    EXPECT_EQ(rs.dynamicRequests, 0u);

    config.traffic = traffic::dynamicMixScenario(2000);
    config.traffic.dynamicFraction = 1.0; // the pure-CPU extreme
    auto rd = PressCluster(config, trace).run(5000);
    EXPECT_EQ(rd.dynamicRequests, rd.offeredRequests);
    EXPECT_EQ(rd.requestsMeasured, rd.offeredRequests);
    // Generated pages never touch the cache or the disk.
    EXPECT_EQ(rd.diskReads, 0u);
    EXPECT_EQ(rd.cacheInsertions, 0u);
}

TEST(TrafficCluster, InFlightCapShedsLoadWithoutLosingAccounting)
{
    auto trace = smallTrace(20000);
    PressConfig config = openConfig();
    config.warmupFraction = 0;
    // Offer ~3x the 4-node capacity behind a shallow client-side cap:
    // the engine must shed, and every arrival must be accounted as
    // either a measured reply or a counted drop.
    config.traffic = traffic::steadyScenario(9000);
    config.traffic.maxInFlight = 64;
    PressCluster cluster(config, trace);
    auto r = cluster.run(6000);

    EXPECT_GT(r.droppedRequests, 0u);
    EXPECT_LE(r.inFlightPeak, 64u);
    EXPECT_EQ(r.requestsMeasured + r.droppedRequests, r.offeredRequests);
    EXPECT_EQ(r.inFlightEnd, 0u);
    EXPECT_TRUE(cluster.simulator().idle());
}

TEST(TrafficCluster, CrashInsideTheMeasuredWindowLosesNoArrival)
{
    // Node 1 dies 1 s into the measured window with open-loop arrivals
    // (and, in the second run, keep-alive session requests) in flight
    // on it. The client's dead-node scan must re-aim every one of them,
    // so every arrival is answered or counted as dropped.
    auto trace = smallTrace(20000);
    for (bool sessions : {false, true}) {
        SCOPED_TRACE(sessions ? "sessions" : "single requests");
        PressConfig config = openConfig();
        config.warmupFraction = 0; // no closed-loop stragglers
        config.traffic = sessions ? traffic::keepAliveScenario(1200)
                                  : traffic::steadyScenario(1200);
        config.fault = fault::FaultPlan::parse("crash:1@1s;restart:1@2s");
        PressCluster cluster(config, trace);
        auto r = cluster.run(5000);

        EXPECT_GT(r.clientRetries, 0u);
        EXPECT_EQ(r.inFlightEnd, 0u);
        EXPECT_EQ(r.requestsMeasured + r.droppedRequests,
                  r.offeredRequests);
        EXPECT_EQ(r.requestsLost, 0u);
        EXPECT_TRUE(cluster.simulator().idle());
    }
}
