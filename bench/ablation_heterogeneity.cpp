/**
 * @file
 * Ablation: load-aware distribution on a heterogeneous cluster.
 *
 * On the paper's homogeneous testbed, Figure 4 finds load information
 * barely matters (NLB is close to PB) — random placement balances
 * symmetric nodes well. Skew the CPU speeds and the picture changes:
 * load-aware candidate selection (PB) routes work away from slow
 * nodes, while load-blind distribution (NLB) queues on them. This
 * bench quantifies that gap for increasing skew.
 */

#include <iostream>

#include "bench_common.hpp"

using namespace press;
using namespace press::bench;
using namespace press::core;

int
main(int argc, char **argv)
{
    Options opts = Options::parse(argc, argv);
    if (opts.maxRequests > 300000)
        opts.maxRequests = 300000;
    banner("Ablation", "load awareness on heterogeneous clusters "
                       "(Clarknet, VIA/cLAN)",
           opts);

    workload::TraceSpec spec = workload::clarknetSpec();
    workload::Trace trace = workload::generateTrace(spec);

    ParallelRunner runner(opts);
    for (double slow : {1.0, 0.75, 0.5, 0.33}) {
        // Half the nodes run at the reduced speed.
        std::vector<double> speeds(static_cast<std::size_t>(opts.nodes),
                                   1.0);
        for (std::size_t i = 0; i < speeds.size(); i += 2)
            speeds[i] = slow;

        auto add = [&](Dissemination diss) {
            PressConfig config;
            config.protocol = Protocol::ViaClan;
            config.version = Version::V0;
            config.dissemination = diss;
            config.cpuSpeeds = speeds;
            runner.add(trace, config);
        };
        add(Dissemination::piggyBack());
        add(Dissemination::none());
    }
    runner.run();

    util::TextTable t;
    t.header({"slow-node speed", "PB req/s", "NLB req/s", "PB gain",
              "PB p-lat ms", "NLB p-lat ms"});
    std::size_t k = 0;
    for (double slow : {1.0, 0.75, 0.5, 0.33}) {
        const auto &pb = runner[k++];
        const auto &nlb = runner[k++];
        t.row({util::fmtF(slow, 2), util::fmtF(pb.throughput, 0),
               util::fmtF(nlb.throughput, 0),
               plusPct(pb.throughput / nlb.throughput - 1),
               util::fmtF(pb.avgLatencyMs, 0),
               util::fmtF(nlb.avgLatencyMs, 0)});
    }
    std::cout << t.render();
    std::cout << "\nExpected shape: PB already beats NLB on the "
                 "homogeneous cluster (Figure 4), and the\nmargin and "
                 "NLB's tail latencies worsen as the nodes diverge.\n";
    return 0;
}
