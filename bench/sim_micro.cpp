/**
 * @file
 * Event-kernel microbenchmark: raw engine speed with no cluster model
 * on top, plus a full-cluster phase at three cluster sizes.
 *
 * Three kernel quantities, written to BENCH_sim.json for tracking:
 *
 *  - events/sec on a self-scheduling workload: 64 concurrent event
 *    chains (the pending-event depth of a busy 8-node cluster run),
 *    each callback rescheduling itself at a pseudo-random small delay
 *    with a 40-byte capture — big enough that std::function would heap-
 *    allocate it, representative of the closures the comm layers post.
 *  - allocations/event, counted by a global operator-new hook. The
 *    kernel's contract is zero in steady state: InlineFn captures live
 *    in the queue's slot storage and the heap/slot arrays stop growing
 *    once the high-water mark is reached.
 *  - p50/p99 schedule->fire host latency: one schedule() + step()
 *    round trip through a warm queue, sampled repeatedly.
 *
 * The cluster phase replays a capped ClarkNet trace on 1/8/64-node
 * TCP/FastEthernet clusters and reports events/sec per cell: the
 * kernel's speed under the event mix and queue depth of a real run.
 *
 * Not a google-benchmark binary: the operator-new hook and the JSON
 * output want a bare main, and the workload provides its own repeats.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/cluster.hpp"
#include "sim/simulator.hpp"
#include "util/cli.hpp"
#include "workload/trace_gen.hpp"

namespace {
std::atomic<unsigned long long> g_allocs{0};
}

void *
operator new(std::size_t n)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using press::sim::Simulator;

constexpr std::uint64_t kEvents = 5'000'000;
constexpr int kChains = 64;
constexpr int kLatencySamples = 200'000;

/** Self-scheduling chains; the capture (this + two words) plus the
 *  xorshift state exercise the inline-storage move path. */
struct ChainBench {
    Simulator sim;
    std::uint64_t fired = 0;
    std::uint64_t state = 0x123456789abcdefull;

    void
    step(std::uint64_t a, std::uint64_t b)
    {
        ++fired;
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        if (fired + kChains <= kEvents)
            sim.schedule(1 + (state & 1023),
                         [this, a, b]() { step(a + b, b); });
    }
};

double
percentile(std::vector<double> &v, double p)
{
    std::sort(v.begin(), v.end());
    auto idx = static_cast<std::size_t>(p * (v.size() - 1));
    return v[idx];
}

/** One cluster-phase cell: kernel events/sec for a capped ClarkNet
 *  replay at a given node count. */
struct ClusterCell {
    int nodes = 0;
    std::uint64_t events = 0;
    double wallSecs = 0;
    double eventsPerSec = 0;
};

ClusterCell
runClusterCell(const press::workload::Trace &trace,
               std::uint64_t requests, int nodes)
{
    press::core::PressConfig config;
    config.protocol = press::core::Protocol::TcpFastEthernet;
    config.nodes = nodes;
    press::core::PressCluster cluster(config, trace);

    auto t0 = std::chrono::steady_clock::now();
    cluster.run(requests);
    auto t1 = std::chrono::steady_clock::now();

    ClusterCell cell;
    cell.nodes = nodes;
    cell.events = cluster.simulator().eventsExecuted();
    cell.wallSecs = std::chrono::duration<double>(t1 - t0).count();
    cell.eventsPerSec =
        static_cast<double>(cell.events) / cell.wallSecs;
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *json_path = "BENCH_sim.json";
    std::uint64_t cluster_requests = 6000;
    bool run_cluster = true;
    for (int i = 1; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json") {
            json_path = press::util::cliValue(argc, argv, i);
        } else if (std::string_view(argv[i]) == "--cluster-requests") {
            cluster_requests = press::util::cliU64(argc, argv, i);
        } else if (std::string_view(argv[i]) == "--no-cluster") {
            run_cluster = false;
        } else if (std::string_view(argv[i]) == "--help") {
            std::cout
                << "usage: " << argv[0]
                << " [options]\n"
                   "Event-kernel microbench: schedules/runs 5M events "
                   "and checks the\n"
                   "steady-state allocation count stays at zero per "
                   "event, then replays\n"
                   "a capped cluster run at 1, 8 and 64 nodes.\n"
                   "  --json PATH           write results JSON "
                   "(default: BENCH_sim.json)\n"
                   "  --cluster-requests N  measured requests per "
                   "cluster cell\n"
                   "                        (default 6000)\n"
                   "  --no-cluster          skip the cluster phase\n"
                   "  --help                this text\n";
            return 0;
        } else {
            std::cerr << "unknown option " << argv[i]
                      << " (try --help)\n";
            return 2;
        }
    }

    // Throughput + allocation phase. Seeding the chains before the
    // timed window lets the queue reach its slot high-water mark, so
    // the measured region is steady state.
    ChainBench bench;
    for (int i = 0; i < kChains; ++i)
        bench.sim.schedule(i, [&bench, i]() { bench.step(i, 3); });

    unsigned long long allocs0 = g_allocs.load();
    auto t0 = std::chrono::steady_clock::now();
    bench.sim.run();
    auto t1 = std::chrono::steady_clock::now();
    unsigned long long allocs1 = g_allocs.load();

    double secs = std::chrono::duration<double>(t1 - t0).count();
    auto events =
        static_cast<double>(bench.sim.eventsExecuted());
    double events_per_sec = events / secs;
    double allocs_per_event =
        static_cast<double>(allocs1 - allocs0) / events;

    // Latency phase: schedule->fire round trips through a warm queue.
    Simulator lat_sim;
    for (int i = 0; i < kChains; ++i)
        lat_sim.schedule(1'000'000'000 + i, []() {});
    std::vector<double> samples;
    samples.reserve(kLatencySamples);
    int sink = 0;
    for (int i = 0; i < kLatencySamples; ++i) {
        auto s0 = std::chrono::steady_clock::now();
        lat_sim.schedule(0, [&sink]() { ++sink; });
        lat_sim.step();
        auto s1 = std::chrono::steady_clock::now();
        samples.push_back(
            std::chrono::duration<double, std::nano>(s1 - s0).count());
    }
    double p50 = percentile(samples, 0.50);
    double p99 = percentile(samples, 0.99);

    std::printf("sim_micro: %.0f events in %.3f s\n", events, secs);
    std::printf("  events/sec       %.3e\n", events_per_sec);
    std::printf("  allocs/event     %.3f\n", allocs_per_event);
    std::printf("  schedule->fire   p50 %.0f ns, p99 %.0f ns\n", p50,
                p99);

    // Cluster phase: the same capped trace replayed per cell, so the
    // cells differ only in node count.
    std::vector<ClusterCell> cells;
    if (run_cluster) {
        auto spec = press::workload::clarknetSpec();
        spec.numRequests = 2 * cluster_requests;
        press::workload::Trace trace =
            press::workload::generateTrace(spec);
        for (int nodes : {1, 8, 64}) {
            ClusterCell cell =
                runClusterCell(trace, cluster_requests, nodes);
            std::printf("  cluster %2d nodes: "
                        "%llu events, %.3f s, %.3e events/sec\n",
                        cell.nodes,
                        static_cast<unsigned long long>(cell.events),
                        cell.wallSecs, cell.eventsPerSec);
            cells.push_back(cell);
        }
    }

    std::ofstream json(json_path);
    if (!json) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    json << "{\n"
         << "  \"benchmark\": \"sim_micro\",\n"
         << "  \"events\": " << static_cast<std::uint64_t>(events)
         << ",\n"
         << "  \"chains\": " << kChains << ",\n"
         << "  \"events_per_sec\": " << events_per_sec << ",\n"
         << "  \"allocs_per_event\": " << allocs_per_event << ",\n"
         << "  \"schedule_fire_p50_ns\": " << p50 << ",\n"
         << "  \"schedule_fire_p99_ns\": " << p99 << ",\n"
         << "  \"cluster\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const ClusterCell &c = cells[i];
        json << (i ? ",\n" : "\n")
             << "    {\"scenario\": \"clarknet_tcpfe\", \"nodes\": "
             << c.nodes << ", \"events\": " << c.events << ", \"wall_s\": "
             << c.wallSecs << ", \"events_per_sec\": "
             << c.eventsPerSec << "}";
    }
    json << (cells.empty() ? "]\n" : "\n  ]\n") << "}\n";
    std::printf("written: %s\n", json_path);

    // The kernel's zero-allocation contract is part of the bench: fail
    // loudly if a change reintroduces per-event heap traffic.
    if (allocs_per_event > 0.001) {
        std::cerr << "FAIL: steady-state allocations per event is "
                  << allocs_per_event << ", expected 0\n";
        return 1;
    }
    return 0;
}
