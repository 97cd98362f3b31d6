/**
 * @file
 * Tests for the observability subsystem (src/obs): ring semantics,
 * metrics rollups, the span-vs-counter exactness invariant, export
 * determinism, the JSON validator, and the .ptrace round trip.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/summary.hpp"
#include "obs/trace_io.hpp"
#include "obs/trace_ring.hpp"
#include "obs/tracer.hpp"
#include "sim/resource.hpp"
#include "workload/trace_gen.hpp"

using namespace press;

namespace {

obs::TraceEvent
ev(sim::Tick tick, std::uint64_t arg = 0)
{
    obs::TraceEvent e;
    e.tick = tick;
    e.arg = arg;
    e.code = obs::Ev::CommSend;
    e.phase = obs::Phase::Instant;
    return e;
}

/** A small traced VIA cluster run (the workhorse for the export and
 *  cross-check tests). */
core::ClusterResults
tracedRun(std::uint32_t ring_capacity = 4096)
{
    workload::TraceSpec spec = workload::clarknetSpec();
    spec.numRequests = 6000;
    spec.numFiles = 800;
    static workload::Trace trace = workload::generateTrace(spec);

    core::PressConfig config;
    config.nodes = 4;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V5;
    config.trace = true;
    config.traceEventsPerNode = ring_capacity;

    core::PressCluster cluster(config, trace);
    return cluster.run();
}

} // namespace

TEST(TraceEvent, Is24BytesPacked)
{
    EXPECT_EQ(sizeof(obs::TraceEvent), 24u);
}

TEST(TraceEvent, PackKindBytesRoundTrips)
{
    std::uint64_t arg = obs::packKindBytes(7, 123456789);
    EXPECT_EQ(obs::unpackKind(arg), 7);
    EXPECT_EQ(obs::unpackBytes(arg), 123456789u);
}

TEST(TraceEvent, RequestIdEncodesNodeAndTag)
{
    std::uint32_t id = obs::requestId(3, 42);
    EXPECT_NE(id, 0u);          // 0 is reserved for "no request"
    EXPECT_EQ(id >> 24, 4u);    // node + 1
    EXPECT_EQ(id & 0xffffffu, 42u);
    EXPECT_NE(obs::requestId(0, 0), obs::requestId(1, 0));
}

TEST(TraceRing, RetainsEverythingBelowCapacity)
{
    obs::TraceRing ring(8);
    for (int i = 0; i < 5; ++i)
        ring.push(ev(i));
    EXPECT_EQ(ring.emitted(), 5u);
    EXPECT_EQ(ring.size(), 5u);
    EXPECT_EQ(ring.dropped(), 0u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(ring.at(i).tick, static_cast<sim::Tick>(i));
}

TEST(TraceRing, WrapsAroundAtCapacity)
{
    obs::TraceRing ring(8);
    for (int i = 0; i < 20; ++i)
        ring.push(ev(i));
    EXPECT_EQ(ring.emitted(), 20u);
    EXPECT_EQ(ring.size(), 8u);     // capacity retained
    EXPECT_EQ(ring.dropped(), 12u); // oldest overwritten
    // at() walks oldest-first over the newest window: ticks 12..19.
    for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(ring.at(i).tick, static_cast<sim::Tick>(12 + i));
    std::vector<obs::TraceEvent> snap = ring.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    EXPECT_EQ(snap.front().tick, 12);
    EXPECT_EQ(snap.back().tick, 19);
}

TEST(TraceRing, ExactlyAtCapacityDropsNothing)
{
    obs::TraceRing ring(8);
    for (int i = 0; i < 8; ++i)
        ring.push(ev(i));
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.dropped(), 0u);
    EXPECT_EQ(ring.at(0).tick, 0);
    EXPECT_EQ(ring.at(7).tick, 7);
    ring.push(ev(8)); // first overwrite
    EXPECT_EQ(ring.dropped(), 1u);
    EXPECT_EQ(ring.at(0).tick, 1);
    EXPECT_EQ(ring.at(7).tick, 8);
}

TEST(TraceRing, ClearKeepsCapacity)
{
    obs::TraceRing ring(4);
    for (int i = 0; i < 10; ++i)
        ring.push(ev(i));
    ring.clear();
    EXPECT_EQ(ring.emitted(), 0u);
    EXPECT_EQ(ring.size(), 0u);
    EXPECT_EQ(ring.capacity(), 4u);
    ring.push(ev(99));
    EXPECT_EQ(ring.at(0).tick, 99);
}

TEST(Metrics, RegisterOrFindReturnsSameSlot)
{
    obs::MetricsRegistry reg(2);
    obs::Counter &a = reg.counter("x", 0);
    obs::Counter &b = reg.counter("x", 0);
    EXPECT_EQ(&a, &b);
    obs::Counter &other_node = reg.counter("x", 1);
    EXPECT_NE(&a, &other_node);
}

TEST(Metrics, SnapshotRollsUpDeterministically)
{
    obs::MetricsRegistry reg(2);
    reg.counter("b.count", 0).add(3);
    reg.counter("b.count", 1).add(4);
    reg.gauge("a.depth", 0).set(5);
    reg.gauge("a.depth", 0).set(2); // max stays 5
    reg.gauge("a.depth", 1).set(9);
    reg.histogram("c.lat", 1).add(10);

    std::vector<obs::MetricSample> snap = reg.snapshot();
    // Sorted by name then node, rollup row (node -1) per name:
    // b.count before a.depth? No — counters and gauges both sort by
    // name within their kind; the registry enumerates counters first.
    ASSERT_EQ(snap.size(), 9u);
    EXPECT_EQ(snap[0].name, "b.count");
    EXPECT_EQ(snap[0].node, 0);
    EXPECT_EQ(snap[0].value, 3u);
    EXPECT_EQ(snap[2].node, -1); // rollup
    EXPECT_EQ(snap[2].value, 7u); // counters sum
    EXPECT_EQ(snap[3].name, "a.depth");
    EXPECT_EQ(snap[5].node, -1);
    EXPECT_EQ(snap[5].value, 9u); // gauges take the max high-water
    EXPECT_EQ(snap[6].name, "c.lat");
    EXPECT_EQ(snap[8].value, 1u); // histogram rollup = total count

    reg.reset();
    for (const auto &s : reg.snapshot())
        EXPECT_EQ(s.value, 0u);
}

TEST(Tracer, ProbeSpanBusyMatchesResourceCounters)
{
    sim::Simulator sim;
    sim::FifoResource cpu(sim, "cpu");
    obs::Tracer tracer(sim, 1, 64, {"service", "client-comm",
                                    "intra-comm", "other"});
    obs::ResourceProbe probe(tracer, 0, obs::ResourceProbe::Kind::Cpu);
    cpu.setListener(&probe);

    cpu.submit(10, 0);
    cpu.submit(25, 2);
    cpu.submit(7, 2);
    cpu.submit(3, 1);
    sim.run();

    // The invariant behind the Figure-1 cross-check: span-derived busy
    // time equals the resource's own category counters exactly.
    for (int c = 0; c < 4; ++c)
        EXPECT_EQ(tracer.spanBusy(0, c), cpu.busyTime(c))
            << "category " << c;
    EXPECT_EQ(tracer.spanBusy(0, 2), 32);

    // The ring saw Begin/End pairs plus depth counters.
    EXPECT_GT(tracer.ring(0).emitted(), 0u);
}

TEST(Tracer, SnapshotCarriesRingsAndAggregates)
{
    sim::Simulator sim;
    obs::Tracer tracer(sim, 2, 16, {"a", "b"});
    tracer.instant(0, obs::Ev::CommSend, 0, obs::packKindBytes(1, 100));
    tracer.instant(1, obs::Ev::CommRecv, 7, obs::packKindBytes(1, 100));
    tracer.addCpuSpan(0, 1, 500);
    tracer.metrics().counter("m", 0).add(2);

    obs::TraceData data = tracer.snapshot();
    EXPECT_EQ(data.nodes, 2u);
    ASSERT_EQ(data.events.size(), 2u);
    EXPECT_EQ(data.events[0].size(), 1u);
    EXPECT_EQ(data.events[1].size(), 1u);
    EXPECT_EQ(data.events[1][0].req, 7u);
    EXPECT_EQ(data.spanBusy[0][1], 500);
    EXPECT_EQ(data.counterBusy[0][1], 0); // caller fills this in
    ASSERT_EQ(data.categories.size(), 2u);
    EXPECT_EQ(data.categories[1], "b");
    EXPECT_FALSE(data.metrics.empty());
}

TEST(ValidateJson, AcceptsWellFormedDocuments)
{
    for (const char *good :
         {"{}", "[]", "null", "true", "-1.5e3",
          R"({"a":[1,2,{"b":null}],"c":"x\nyA"})",
          R"([{"ts":0.001,"ph":"B"},{"ts":1,"ph":"E"}])"}) {
        std::string error;
        EXPECT_TRUE(obs::validateJson(good, &error))
            << good << ": " << error;
    }
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\" 1}", "tru",
          "\"unterminated", "{} garbage", "[1] [2]", "+1",
          "{\"a\":1,}", "nan"}) {
        std::string error;
        EXPECT_FALSE(obs::validateJson(bad, &error)) << bad;
        EXPECT_FALSE(error.empty()) << bad;
    }
}

TEST(TracedCluster, CrossCheckPassesAndExportsValidate)
{
    core::ClusterResults r = tracedRun();
    ASSERT_TRUE(r.trace);
    const obs::TraceData &data = *r.trace;
    EXPECT_EQ(data.nodes, 4u);

    std::ostringstream diag;
    EXPECT_TRUE(obs::crossCheck(data, &diag)) << diag.str();

    std::ostringstream json;
    obs::writeChromeTrace(json, data);
    std::string error;
    EXPECT_TRUE(obs::validateJson(json.str(), &error)) << error;

    std::ostringstream summary;
    obs::writeSummary(summary, data);
    EXPECT_NE(summary.str().find("intra-comm"), std::string::npos);
}

TEST(TracedCluster, CrossCheckDetectsTampering)
{
    core::ClusterResults r = tracedRun();
    ASSERT_TRUE(r.trace);
    obs::TraceData data = *r.trace;
    data.counterBusy[2][1] += 1; // one lost nanosecond must be caught
    std::ostringstream diag;
    EXPECT_FALSE(obs::crossCheck(data, &diag));
    EXPECT_NE(diag.str().find("node"), std::string::npos);
}

TEST(TracedCluster, RerunsAreByteIdentical)
{
    core::ClusterResults a = tracedRun();
    core::ClusterResults b = tracedRun();
    ASSERT_TRUE(a.trace && b.trace);

    std::ostringstream ja, jb;
    obs::writeChromeTrace(ja, *a.trace);
    obs::writeChromeTrace(jb, *b.trace);
    EXPECT_EQ(ja.str(), jb.str());

    std::ostringstream pa, pb;
    obs::writeTrace(pa, *a.trace);
    obs::writeTrace(pb, *b.trace);
    EXPECT_EQ(pa.str(), pb.str());
}

TEST(TracedCluster, StallCounterMatchesStallInstants)
{
    // ViaComm, not the credit gate, traces a stalled acquire: every
    // comm.stalls increment must come with exactly one CommStall
    // instant. A 2-slot window under per-change load broadcasts stalls
    // often; the ring is sized so no event is dropped, and there is no
    // warm-up, whose end would reset the counter but not the ring.
    workload::TraceSpec spec = workload::clarknetSpec();
    spec.numRequests = 3000;
    spec.numFiles = 800;
    workload::Trace trace = workload::generateTrace(spec);

    core::PressConfig config;
    config.nodes = 8;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.dissemination = core::Dissemination::broadcast(1);
    config.controlWindow = 2;
    config.warmupFraction = 0;
    config.trace = true;
    config.traceEventsPerNode = 1u << 17;

    core::PressCluster cluster(config, trace);
    core::ClusterResults r = cluster.run();
    ASSERT_TRUE(r.trace);
    const obs::TraceData &data = *r.trace;

    std::uint64_t instants = 0;
    for (std::size_t n = 0; n < data.events.size(); ++n) {
        ASSERT_EQ(data.events[n].size(), data.emitted[n])
            << "node " << n << " dropped trace events";
        for (const obs::TraceEvent &e : data.events[n])
            instants += e.code == obs::Ev::CommStall &&
                        e.phase == obs::Phase::Instant;
    }
    std::uint64_t counted = 0;
    for (const obs::MetricSample &m : data.metrics)
        if (m.name == "comm.stalls" && m.node >= 0)
            counted += m.value;
    EXPECT_GT(counted, 0u);
    EXPECT_EQ(counted, instants);
}

TEST(TraceIo, RoundTripPreservesEverything)
{
    core::ClusterResults r = tracedRun(512);
    ASSERT_TRUE(r.trace);
    const obs::TraceData &data = *r.trace;

    std::ostringstream out;
    obs::writeTrace(out, data);
    std::string bytes = out.str();

    obs::TraceData back;
    std::istringstream in(bytes);
    std::string error;
    ASSERT_TRUE(obs::readTrace(in, back, &error)) << error;

    EXPECT_EQ(back.nodes, data.nodes);
    EXPECT_EQ(back.categories, data.categories);
    EXPECT_EQ(back.emitted, data.emitted);
    EXPECT_EQ(back.spanBusy, data.spanBusy);
    EXPECT_EQ(back.counterBusy, data.counterBusy);
    ASSERT_EQ(back.events.size(), data.events.size());
    for (std::size_t n = 0; n < data.events.size(); ++n) {
        ASSERT_EQ(back.events[n].size(), data.events[n].size());
        for (std::size_t i = 0; i < data.events[n].size(); ++i) {
            EXPECT_EQ(back.events[n][i].tick, data.events[n][i].tick);
            EXPECT_EQ(back.events[n][i].arg, data.events[n][i].arg);
            EXPECT_EQ(back.events[n][i].req, data.events[n][i].req);
            EXPECT_EQ(back.events[n][i].code, data.events[n][i].code);
        }
    }
    ASSERT_EQ(back.metrics.size(), data.metrics.size());
    for (std::size_t i = 0; i < data.metrics.size(); ++i) {
        EXPECT_EQ(back.metrics[i].name, data.metrics[i].name);
        EXPECT_EQ(back.metrics[i].node, data.metrics[i].node);
        EXPECT_EQ(back.metrics[i].value, data.metrics[i].value);
    }

    // Re-serializing the parsed data reproduces the bytes exactly.
    std::ostringstream again;
    obs::writeTrace(again, back);
    EXPECT_EQ(again.str(), bytes);
}

TEST(TraceIo, RejectsCorruptStreams)
{
    std::string error;
    obs::TraceData data;
    {
        std::istringstream empty("");
        EXPECT_FALSE(obs::readTrace(empty, data, &error));
    }
    {
        std::istringstream junk("not a ptrace file at all");
        EXPECT_FALSE(obs::readTrace(junk, data, &error));
        EXPECT_FALSE(error.empty());
    }
    {
        // Valid magic, truncated body.
        std::string bytes = "PTRC";
        std::istringstream truncated(bytes);
        EXPECT_FALSE(obs::readTrace(truncated, data, &error));
    }
}

TEST(TracingOff, NoTracerAndNoTraceData)
{
    workload::TraceSpec spec = workload::clarknetSpec();
    spec.numRequests = 2000;
    spec.numFiles = 400;
    workload::Trace trace = workload::generateTrace(spec);

    core::PressConfig config;
    config.nodes = 2;
    config.trace = false;
    core::PressCluster cluster(config, trace);
    EXPECT_EQ(cluster.tracer(), nullptr);
    core::ClusterResults r = cluster.run();
    EXPECT_FALSE(r.trace);
    EXPECT_GT(r.throughput, 0.0);
}
