#include "workloads.hpp"

#include "model/press_model.hpp"
#include "traffic/traffic_model.hpp"
#include "util/logging.hpp"

namespace perfbench {

using namespace press;
using core::Dissemination;
using core::PressConfig;
using core::Protocol;
using core::Version;

namespace {

// Measured requests per cell, sized so one repetition of a workload
// takes 2-4 s of host time on a 4-core host and a 15 s run times at
// least three repetitions. flash16 is the exception at 6-9 s: with
// fewer arrivals the flash spike's backlog dominates the window, and
// how deep it gets varies so much between seeds that host_req_per_s
// spread 0.23 (IQR/median over ten seeds) against 0.11 at 250 k.
constexpr std::uint64_t Paper8Requests = 10000;
constexpr double Paper8Warmup = 12;
constexpr std::uint64_t Scale64Requests = 1500;
constexpr std::uint64_t Scale256Requests = 12000;
constexpr std::uint64_t Flash16Arrivals = 250000;

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Every knob that would otherwise read the environment is pinned. */
PressConfig
baseConfig(std::uint64_t seed)
{
    PressConfig c;
    c.seed = splitmix64(seed ^ 0x636c75737465ull);
    c.trace = false;
    c.viaCheck = core::ViaCheck::Off;
    c.causality = core::ViaCheck::Off;
    c.tieBreak = sim::TieBreak::Fifo;
    return c;
}

Cell
cell(PressConfig config, std::uint64_t requests)
{
    return {config.label(), std::move(config), requests};
}

Workload
paper8(std::uint64_t seed)
{
    Workload w;
    w.name = "paper8";
    w.trace = workload::clarknetSpec();
    w.trace.numRequests = Paper8Requests;

    PressConfig tcp = baseConfig(seed);
    tcp.nodes = 8;
    tcp.clientsPerNode = 88;
    tcp.protocol = Protocol::TcpClan;
    tcp.version = Version::V0;
    tcp.dissemination = Dissemination::piggyBack();
    // A short trace replayed many times: replication at the T = 80
    // overload pivot settles during warm-up, so the measured window
    // sees the CPU-bound regime of the paper's full-trace runs instead
    // of a disk-bound cold start.
    tcp.warmupFraction = Paper8Warmup;

    PressConfig via = tcp;
    via.protocol = Protocol::ViaClan;
    via.version = Version::V5;

    w.cells = {cell(tcp, Paper8Requests), cell(via, Paper8Requests)};
    w.baseline = 0;
    w.primary = 1;
    return w;
}

/** The X9 scale sweep's cell shape: VIA/cLAN-V0, 8 clients per node
 *  (below saturation, so dissemination cost is compared at equal
 *  per-node request rate). */
Workload
scale(std::uint64_t seed, const char *name, int nodes,
      Dissemination dissemination, core::DirectoryMode directory,
      std::uint64_t requests)
{
    Workload w;
    w.name = name;
    w.trace = workload::clarknetSpec();
    w.trace.numRequests = requests;

    PressConfig c = baseConfig(seed);
    c.nodes = nodes;
    c.clientsPerNode = 8;
    c.protocol = Protocol::ViaClan;
    c.version = Version::V0;
    c.dissemination = dissemination;
    c.directoryMode = directory;
    w.cells = {cell(c, requests)};
    return w;
}

/**
 * capacity_slo's flash crowd on 16 nodes, offered at 0.8x the model's
 * saturation throughput, with node 5 crashing and restarting. Stays on
 * piggy-back dissemination with a replicated directory: VIA V2-V5 with
 * gossip or tree dissemination aborts in via_comm (README.md, "Known
 * defects").
 */
Workload
flash16(std::uint64_t seed)
{
    constexpr int Nodes = 16;
    constexpr std::uint64_t CacheBytes = 8 * util::MB;

    Workload w;
    w.name = "flash16";
    w.trace.name = "flash-synth";
    w.trace.numFiles = 200 * Nodes;
    w.trace.numRequests = Flash16Arrivals;
    w.trace.avgFileSize = 12000;
    w.trace.avgRequestSize = 9000;

    model::ModelParams mp = model::ModelParams::viaRmwZc();
    mp.cacheBytes = static_cast<double>(CacheBytes);
    mp.avgFileBytes = w.trace.avgFileSize;
    const double model_rps =
        model::PressModel(mp)
            .predictFromPopulation(Nodes,
                                   static_cast<double>(w.trace.numFiles))
            .throughput;

    PressConfig c = baseConfig(seed);
    c.nodes = Nodes;
    c.protocol = Protocol::ViaClan;
    c.version = Version::V5;
    c.dissemination = Dissemination::piggyBack();
    c.cacheBytes = CacheBytes;
    c.clientsPerNode = 44;
    c.warmupFraction = 0.3;
    c.clientMode = PressConfig::ClientMode::OpenLoop;
    c.traffic = traffic::flashScenario(0.8 * model_rps);
    // Absolute sim times, inside the closed-loop warm-up (the measured
    // window opens at about 10.5 s). Inside the open-loop window the crash
    // strands 600-800 arrivals that are never answered (README.md,
    // "Known defects"); the fault moves there once that is fixed.
    c.fault.crash(5, 5 * util::SEC).restart(5, 6 * util::SEC);
    w.cells = {cell(c, Flash16Arrivals)};
    return w;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper8", "scale64_l1", "scale256_g4", "flash16"};
    return names;
}

Workload
makeWorkload(std::string_view name, std::uint64_t seed)
{
    Workload w;
    if (name == "paper8")
        w = paper8(seed);
    else if (name == "scale64_l1")
        w = scale(seed, "scale64_l1", 64, Dissemination::broadcast(1),
                  core::DirectoryMode::Replicated, Scale64Requests);
    else if (name == "scale256_g4")
        w = scale(seed, "scale256_g4", 256, Dissemination::gossip(),
                  core::DirectoryMode::Sharded, Scale256Requests);
    else if (name == "flash16")
        w = flash16(seed);
    else
        util::fatal("unknown workload '", name,
                    "' (paper8, scale64_l1, scale256_g4, flash16)");
    w.trace.seed = splitmix64(seed ^ 0x7472616365ull);
    return w;
}

std::uint64_t
issuedRequests(const Cell &cell, std::size_t trace_requests)
{
    std::uint64_t measured =
        std::min<std::uint64_t>(cell.requests, trace_requests);
    return static_cast<std::uint64_t>(cell.config.warmupFraction *
                                      static_cast<double>(measured)) +
           measured;
}

} // namespace perfbench
