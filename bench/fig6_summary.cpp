/**
 * @file
 * Figure 6: summary of the contributions of user-level communication —
 * low processor overhead, remote memory writes, and zero-copy — stacked
 * above the TCP/cLAN baseline, per trace.
 *
 * Decomposition follows Section 3.4's attribution: low overhead =
 * V0 vs TCP/cLAN; RMW = V4 vs V0 (the paper credits V4's gain to RMW
 * because it realizes the copy-avoiding receive RMW enables); zero-copy
 * = V5 vs V4. Paper: total up to 29% (avg 26%): ~15% overhead, ~7% RMW,
 * ~4% zero-copy.
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
    banner("Figure 6", "contributions over the TCP/cLAN baseline", opts);
    TraceSet traces(opts);

    ParallelRunner runner(opts);
    for (const auto &trace : traces.all()) {
        auto add = [&](Protocol p, Version v) {
            PressConfig config;
            config.protocol = p;
            config.version = v;
            runner.add(trace, config);
        };
        add(Protocol::TcpClan, Version::V0);
        add(Protocol::ViaClan, Version::V0);
        add(Protocol::ViaClan, Version::V4);
        add(Protocol::ViaClan, Version::V5);
    }
    runner.run();

    util::TextTable t;
    t.header({"trace", "TCP/cLAN", "+LowOverhead", "+RMW", "+0-Copy",
              "total gain", "paper total"});
    double gain_sum = 0;
    std::size_t k = 0;
    for (const auto &trace : traces.all()) {
        double base = runner[k++].throughput;
        double v0 = runner[k++].throughput;
        double v4 = runner[k++].throughput;
        double v5 = runner[k++].throughput;
        double total = v5 / base - 1.0;
        gain_sum += total;
        t.row({trace.name, util::fmtF(base, 0),
               plusPct(v0 / base - 1.0),
               plusPct((v4 - v0) / base),
               plusPct((v5 - v4) / base),
               plusPct(total), "up to +29%"});
    }
    t.separator();
    t.row({"average", "", "", "", "", plusPct(gain_sum / 4),
           "+26%"});
    std::cout << t.render();
    std::cout << "\nPaper (Fig. 6 + S3.4): user-level communication "
                 "improves throughput by as much as 29%\n(avg 26%): low "
                 "overhead ~15%, RMW file transfers ~7%, zero-copy "
                 "~4%.\n";
    return 0;
}
