/**
 * @file
 * Extension: cluster-size scaling, to 256 nodes.
 *
 * Part 1 (X9): dissemination and directory scaling. The paper's L1
 * broadcast and replicated cache directory both carry an O(N) cost per
 * node — O(N^2) cluster-wide — which is invisible at the paper's 8
 * nodes and dominant at 256. This sweep compares PB / L1 / gossip /
 * tree dissemination crossed with replicated / sharded directories
 * over a --nodes list (default 8,16,32,64,128,256) and writes the grid
 * to BENCH_scale.json.
 *
 * Part 2 (X7): the paper validates its model only at 8 nodes and then
 * extrapolates analytically; with a simulator we can cross-check the
 * extrapolation over the sizes the hardware allowed and beyond (1-16
 * nodes), for both TCP/cLAN and VIA/cLAN-V5.
 */

#include <algorithm>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "model/press_model.hpp"

using namespace press;
using namespace press::bench;
using namespace press::core;

namespace {

/** Dissemination traffic: every Load and Caching message on the
 *  intra-cluster network (broadcasts, rumors, and shard updates). */
std::uint64_t
dissemMsgs(const ClusterResults &r)
{
    return r.comm.of(MsgKind::Load).msgs + r.comm.of(MsgKind::Caching).msgs;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    banner("Scalability", "cluster-size scaling to 256 nodes, "
                          "sim vs. model (Clarknet)",
           opts);

    workload::TraceSpec spec = workload::clarknetSpec();
    if (opts.maxRequests && spec.numRequests > opts.maxRequests)
        spec.numRequests = opts.maxRequests;
    workload::Trace trace = workload::generateTrace(spec);

    // ---- Part 1: dissemination x directory, up to 256 nodes --------
    std::vector<int> sizes = opts.nodesList;
    if (sizes.empty())
        sizes = {8, 16, 32, 64, 128, 256};

    const std::vector<std::pair<std::string, Dissemination>> kinds = {
        {"PB", Dissemination::piggyBack()},
        {"L1", Dissemination::broadcast(1)},
        {"G4", Dissemination::gossip()},
        {"T4", Dissemination::tree()},
    };

    ParallelRunner sweep(opts);
    std::vector<std::uint64_t> caps;
    for (int n : sizes) {
        // Keep offered load per node roughly constant: big clusters
        // get more requests, but bounded so 256 nodes stays quick.
        std::uint64_t cap = 200ull * static_cast<unsigned>(n) + 20000;
        cap = std::min<std::uint64_t>(cap, trace.requests.size());
        caps.push_back(cap);
        for (const auto &[name, diss] : kinds) {
            for (DirectoryMode mode : {DirectoryMode::Replicated,
                                       DirectoryMode::Sharded}) {
                Cell cell;
                cell.trace = &trace;
                cell.config.protocol = Protocol::ViaClan;
                cell.config.version = Version::V0;
                cell.config.dissemination = diss;
                cell.config.directoryMode = mode;
                // Fixed modest concurrency: the paper's 88 closed-loop
                // clients/node drive every size deep into saturation
                // (22528 clients at 256 nodes with ~3 requests each is
                // one thundering herd), where all strategies bottleneck
                // identically. 8 clients/node keeps the cluster below
                // saturation so the sweep compares dissemination cost
                // at equal per-node request rate.
                cell.config.clientsPerNode = 8;
                cell.nodes = n;
                cell.maxRequests = cap;
                sweep.add(std::move(cell));
            }
        }
    }
    sweep.run();

    util::TextTable grid;
    grid.header({"nodes", "config", "reqs/s", "p99 ms", "load K",
                 "cache K", "dissem K", "dir/node"});
    std::size_t cell = 0;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        for (std::size_t c = 0; c < kinds.size() * 2; ++c) {
            const auto &r = sweep[cell++];
            grid.row({c == 0 ? std::to_string(sizes[s]) : "",
                      r.configLabel, util::fmtF(r.throughput, 0),
                      util::fmtF(r.p99LatencyMs, 1),
                      util::fmtF(r.comm.of(MsgKind::Load).msgs / 1e3, 1),
                      util::fmtF(r.comm.of(MsgKind::Caching).msgs / 1e3,
                                 1),
                      util::fmtF(dissemMsgs(r) / 1e3, 1),
                      std::to_string(r.dirEntriesMaxPerNode)});
        }
        grid.separator();
    }
    std::cout << grid.render();

    // Crossover summary at the largest size: per-config dissemination
    // traffic relative to L1-broadcast, and the directory footprint of
    // sharding. These back the X9 claims in EXPERIMENTS.md.
    const std::size_t per_size = kinds.size() * 2;
    const std::size_t base = (sizes.size() - 1) * per_size;
    const auto &l1 = sweep[base + 2];   // L1, replicated
    const auto &g4 = sweep[base + 4];   // G4, replicated
    const auto &t4 = sweep[base + 6];   // T4, replicated
    const auto &l1s = sweep[base + 3];  // L1, sharded
    double g_ratio = static_cast<double>(dissemMsgs(l1)) /
                     std::max<std::uint64_t>(1, dissemMsgs(g4));
    double t_ratio = static_cast<double>(dissemMsgs(l1)) /
                     std::max<std::uint64_t>(1, dissemMsgs(t4));
    double dir_ratio =
        static_cast<double>(l1.dirEntriesMaxPerNode) /
        std::max<std::uint64_t>(1, l1s.dirEntriesMaxPerNode);
    std::cout << "\nAt " << sizes.back() << " nodes: L1 dissemination "
              << "traffic / gossip = " << util::fmtF(g_ratio, 1)
              << "x, / tree = " << util::fmtF(t_ratio, 1)
              << "x;\nsharded directory (S16) shrinks the per-node "
              << "directory " << util::fmtF(dir_ratio, 1)
              << "x vs. replicated.\n";

    const char *json_path = "BENCH_scale.json";
    std::ofstream json(json_path);
    if (!json) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    json << "{\n  \"benchmark\": \"scalability_nodes\",\n"
         << "  \"trace\": \"" << trace.name << "\",\n  \"cells\": [";
    cell = 0;
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        for (std::size_t c = 0; c < per_size; ++c) {
            const auto &r = sweep[cell];
            json << (cell ? ",\n" : "\n") << "    {\"nodes\": "
                 << sizes[s] << ", \"config\": \"" << r.configLabel
                 << "\", \"requests\": " << caps[s]
                 << ", \"throughput\": " << r.throughput
                 << ", \"p99_ms\": " << r.p99LatencyMs
                 << ", \"load_msgs\": " << r.comm.of(MsgKind::Load).msgs
                 << ", \"caching_msgs\": "
                 << r.comm.of(MsgKind::Caching).msgs
                 << ", \"dir_entries_max_per_node\": "
                 << r.dirEntriesMaxPerNode << ", \"gossip_rounds\": "
                 << r.gossipRounds << ", \"gossip_rumor_sends\": "
                 << r.gossipRumorSends << ", \"load_waves\": "
                 << r.loadWaves << ", \"caching_waves\": "
                 << r.cachingWaves << ", \"dir_lookups\": "
                 << r.dirLookups << "}";
            ++cell;
        }
    }
    json << "\n  ],\n  \"summary\": {\"nodes\": " << sizes.back()
         << ", \"l1_over_gossip_msgs\": " << g_ratio
         << ", \"l1_over_tree_msgs\": " << t_ratio
         << ", \"dir_memory_ratio\": " << dir_ratio << "}\n}\n";
    json.close();
    std::cout << "written: " << json_path << "\n";

    // ---- Part 2: sim vs analytical model, 1-16 nodes ---------------
    std::uint64_t model_cap = std::min<std::uint64_t>(
        opts.maxRequests ? opts.maxRequests : trace.requests.size(),
        300000);
    ParallelRunner runner(opts);
    for (int n : {1, 2, 4, 8, 12, 16}) {
        // Keep offered load per node constant.
        PressConfig tcp;
        tcp.protocol = Protocol::TcpClan;
        Cell ct;
        ct.trace = &trace;
        ct.config = tcp;
        ct.nodes = n;
        ct.maxRequests = model_cap;
        runner.add(std::move(ct));
        PressConfig via;
        via.protocol = Protocol::ViaClan;
        via.version = Version::V5;
        Cell cv;
        cv.trace = &trace;
        cv.config = via;
        cv.nodes = n;
        cv.maxRequests = model_cap;
        runner.add(std::move(cv));
    }
    runner.run();

    util::TextTable t;
    t.header({"nodes", "sim TCP", "sim VIA-V5", "sim gain", "model TCP",
              "model VIA", "model gain"});
    std::size_t k = 0;
    for (int n : {1, 2, 4, 8, 12, 16}) {
        const auto &rt = runner[k++];
        const auto &rv = runner[k++];

        model::ModelParams mt = model::ModelParams::tcp();
        model::ModelParams mv = model::ModelParams::viaRmwZc();
        mt.avgFileBytes = mv.avgFileBytes = trace.averageRequestSize();
        double pt = model::PressModel(mt)
                        .predictFromPopulation(
                            n, static_cast<double>(trace.files.count()))
                        .throughput;
        double pv = model::PressModel(mv)
                        .predictFromPopulation(
                            n, static_cast<double>(trace.files.count()))
                        .throughput;

        t.row({std::to_string(n), util::fmtF(rt.throughput, 0),
               util::fmtF(rv.throughput, 0),
               plusPct(rv.throughput / rt.throughput - 1),
               util::fmtF(pt, 0), util::fmtF(pv, 0),
               plusPct(pv / pt - 1)});
    }
    std::cout << "\n" << t.render();
    std::cout << "\nBoth columns should show the same story: gains grow "
                 "with the node count and flatten,\nbecause per-node "
                 "intra-cluster traffic grows as (N-1)/N (Section "
                 "4.2).\n";
    return 0;
}
