/**
 * @file
 * Generic parameter-sweep driver: vary one knob across a range for a
 * set of configurations and print (or CSV-export) throughput, latency
 * percentiles, and comm behaviour. The benches cover the paper's
 * specific sweeps; this tool lets a user run their own without writing
 * code.
 *
 * Usage:
 *   press_sweep --param nodes|clients|cache-mb|window|threshold
 *               --values 2,4,8,16
 *               [--trace clarknet|forth|nasa|rutgers] [--requests N]
 *               [--configs tcpfe,tcpclan,via0,via5,lard,oblivious]
 *               [--csv FILE] [--jobs N]
 *
 * Cells run concurrently on --jobs worker threads (default: one per
 * hardware thread); the table is identical for any jobs count.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "core/cluster.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using namespace press::core;

namespace {

std::vector<std::string>
splitCsvList(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

PressConfig
configFor(const std::string &name)
{
    PressConfig c;
    if (name == "tcpfe") {
        c.protocol = Protocol::TcpFastEthernet;
    } else if (name == "tcpclan") {
        c.protocol = Protocol::TcpClan;
    } else if (name == "via0") {
        c.protocol = Protocol::ViaClan;
        c.version = Version::V0;
    } else if (name == "via5") {
        c.protocol = Protocol::ViaClan;
        c.version = Version::V5;
    } else if (name == "lard") {
        c.protocol = Protocol::TcpClan;
        c.distribution = Distribution::FrontEndLard;
    } else if (name == "oblivious") {
        c.protocol = Protocol::TcpClan;
        c.distribution = Distribution::LocalOnly;
    } else {
        util::fatal("unknown config '", name,
                    "' (tcpfe|tcpclan|via0|via5|lard|oblivious)");
    }
    return c;
}

void
applyParam(PressConfig &c, const std::string &param, double value)
{
    if (param == "nodes")
        c.nodes = static_cast<int>(value);
    else if (param == "clients")
        c.clientsPerNode = static_cast<int>(value);
    else if (param == "cache-mb")
        c.cacheBytes = static_cast<std::uint64_t>(value) * util::MB;
    else if (param == "window")
        c.controlWindow = c.fileWindow = static_cast<int>(value);
    else if (param == "threshold")
        c.overloadThreshold = static_cast<int>(value);
    else
        util::fatal("unknown param '", param,
                    "' (nodes|clients|cache-mb|window|threshold)");
}

} // namespace

int
main(int argc, char **argv)
{
    std::string param = "nodes";
    std::string values_arg = "2,4,8";
    std::string trace_name = "clarknet";
    std::string configs_arg = "tcpclan,via5";
    std::string csv_path;
    std::uint64_t requests = 200000;
    int jobs = 0;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--param"))
            param = util::cliValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--values"))
            values_arg = util::cliValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--trace"))
            trace_name = util::cliValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--configs"))
            configs_arg = util::cliValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--csv"))
            csv_path = util::cliValue(argc, argv, i);
        else if (!std::strcmp(argv[i], "--requests"))
            requests = util::cliU64(argc, argv, i);
        else if (!std::strcmp(argv[i], "--jobs"))
            jobs = static_cast<int>(util::cliInt(argc, argv, i, 0,
                                                 4096));
        else
            util::fatal("unknown option ", argv[i]);
    }

    auto spec = workload::findPaperTrace(trace_name);
    if (!spec)
        util::fatal("unknown trace ", trace_name);
    workload::Trace trace = workload::generateTrace(*spec);

    bench::Options opts;
    opts.jobs = jobs;
    bench::ParallelRunner runner(opts);
    for (const std::string &value_str : splitCsvList(values_arg)) {
        double value =
            util::cliParseDouble(value_str.c_str(), "--values");
        for (const std::string &cfg_name : splitCsvList(configs_arg)) {
            PressConfig config = configFor(cfg_name);
            applyParam(config, param, value);
            bench::Cell cell;
            cell.trace = &trace;
            // The sweep may vary the node count itself; carry the
            // config's value so the runner does not reapply a default.
            cell.nodes = config.nodes;
            cell.maxRequests = requests;
            cell.config = std::move(config);
            runner.add(std::move(cell));
        }
    }
    runner.run();

    util::TextTable t;
    t.header({param, "config", "req/s", "mean ms", "p99 ms",
              "fwd frac", "disk util", "intra CPU"});
    std::size_t k = 0;
    for (const std::string &value_str : splitCsvList(values_arg)) {
        double value =
            util::cliParseDouble(value_str.c_str(), "--values");
        for (const std::string &cfg_name : splitCsvList(configs_arg)) {
            PressConfig config = configFor(cfg_name);
            applyParam(config, param, value);
            const auto &r = runner[k++];
            t.row({value_str, config.label(),
                   util::fmtF(r.throughput, 0),
                   util::fmtF(r.avgLatencyMs, 1),
                   util::fmtF(r.p99LatencyMs, 1),
                   util::fmtPct(r.forwardFraction),
                   util::fmtPct(r.diskUtilization),
                   util::fmtPct(r.intraCommShare())});
        }
        t.separator();
    }
    std::cout << t.render();
    if (!csv_path.empty()) {
        std::ofstream csv(csv_path);
        if (!csv)
            util::fatal("cannot write ", csv_path);
        csv << t.renderCsv();
        std::cout << "CSV written to " << csv_path << "\n";
    }
    return 0;
}
