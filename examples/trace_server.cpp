/**
 * @file
 * Replay a workload against a configurable PRESS cluster and print the
 * full measurement report: throughput, latency, CPU-time breakdown,
 * per-type message traffic, and cache behaviour.
 *
 * The workload is either a built-in paper trace, a synthetic spec, or
 * a trace file previously written with Trace::saveFile (the tool can
 * also emit one with --save).
 *
 * Usage:
 *   trace_server [--trace clarknet|forth|nasa|rutgers | --load FILE]
 *                [--proto tcpfe|tcpclan|via] [--version 0..5]
 *                [--nodes N] [--clients-per-node K]
 *                [--dissemination pb|l1|l4|l16|nlb|g4|t4]
 *                [--directory replicated|sharded]
 *                [--distribution press|oblivious|lard]
 *                [--requests N] [--save FILE]
 *                [--stats-dump] [--csv FILE]
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "core/cluster.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using namespace press::core;

int
main(int argc, char **argv)
{
    std::string trace_name = "clarknet";
    std::string load_path, save_path, csv_path;
    bool trace_given = false, stats_dump = false;
    PressConfig config;
    std::uint64_t requests = 400000;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trace")) {
            trace_name = util::cliValue(argc, argv, i);
            trace_given = true;
        } else if (!std::strcmp(argv[i], "--load")) {
            load_path = util::cliValue(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--save")) {
            save_path = util::cliValue(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--proto")) {
            std::string p = util::cliValue(argc, argv, i);
            if (p == "via")
                config.protocol = Protocol::ViaClan;
            else if (p == "tcpclan")
                config.protocol = Protocol::TcpClan;
            else if (p == "tcpfe")
                config.protocol = Protocol::TcpFastEthernet;
            else
                util::fatal("unknown protocol ", p);
        } else if (!std::strcmp(argv[i], "--version")) {
            config.version = static_cast<Version>(
                util::cliInt(argc, argv, i, 0, 5));
        } else if (!std::strcmp(argv[i], "--nodes")) {
            config.nodes = static_cast<int>(
                util::cliInt(argc, argv, i, 1, 4096));
        } else if (!std::strcmp(argv[i], "--clients-per-node")) {
            config.clientsPerNode = static_cast<int>(
                util::cliInt(argc, argv, i, 1, 1 << 20));
        } else if (!std::strcmp(argv[i], "--dissemination")) {
            std::string d = util::cliValue(argc, argv, i);
            if (d == "pb")
                config.dissemination = Dissemination::piggyBack();
            else if (d == "l1")
                config.dissemination = Dissemination::broadcast(1);
            else if (d == "l4")
                config.dissemination = Dissemination::broadcast(4);
            else if (d == "l16")
                config.dissemination = Dissemination::broadcast(16);
            else if (d == "g4")
                config.dissemination = Dissemination::gossip();
            else if (d == "t4")
                config.dissemination = Dissemination::tree();
            else if (d == "nlb")
                config.dissemination = Dissemination::none();
            else
                util::fatal("unknown dissemination ", d);
        } else if (!std::strcmp(argv[i], "--directory")) {
            std::string d = util::cliValue(argc, argv, i);
            if (d == "sharded")
                config.directoryMode = DirectoryMode::Sharded;
            else if (d == "replicated")
                config.directoryMode = DirectoryMode::Replicated;
            else
                util::fatal("unknown directory mode ", d);
        } else if (!std::strcmp(argv[i], "--distribution")) {
            std::string d = util::cliValue(argc, argv, i);
            if (d == "press")
                config.distribution = Distribution::LocalityConscious;
            else if (d == "oblivious")
                config.distribution = Distribution::LocalOnly;
            else if (d == "lard")
                config.distribution = Distribution::FrontEndLard;
            else
                util::fatal("unknown distribution ", d);
        } else if (!std::strcmp(argv[i], "--requests")) {
            requests = util::cliU64(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--csv")) {
            csv_path = util::cliValue(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--stats-dump")) {
            stats_dump = true;
        } else {
            util::fatal("unknown option ", argv[i]);
        }
    }

    if (trace_given && !load_path.empty())
        util::fatal("--trace and --load are exclusive");
    workload::Trace trace;
    if (!load_path.empty()) {
        trace = workload::Trace::loadFile(load_path);
    } else {
        auto spec = workload::findPaperTrace(trace_name);
        if (!spec)
            util::fatal("unknown trace ", trace_name);
        trace = workload::generateTrace(*spec);
    }
    if (!save_path.empty()) {
        trace.saveFile(save_path);
        std::cout << "trace written to " << save_path << "\n";
    }

    std::cout << "replaying " << trace.name << " ("
              << trace.files.count() << " files, capped at " << requests
              << " measured requests) on " << config.label() << ", "
              << config.nodes << " nodes\n\n";

    PressCluster cluster(config, trace);
    ClusterResults r = cluster.run(requests);

    util::TextTable summary;
    summary.header({"metric", "value"});
    summary.row({"throughput", util::fmtF(r.throughput, 0) + " req/s"});
    summary.row({"mean latency", util::fmtF(r.avgLatencyMs, 1) + " ms"});
    summary.row({"measured requests", util::fmtInt(r.requestsMeasured)});
    summary.row({"measured window", util::fmtF(r.measuredSeconds, 1) +
                                        " s"});
    summary.row({"CPU utilization", util::fmtPct(r.cpuUtilization)});
    summary.row({"disk utilization", util::fmtPct(r.diskUtilization)});
    summary.row({"forwarded", util::fmtPct(r.forwardFraction)});
    summary.row({"local cache hits", util::fmtPct(r.localHitFraction)});
    summary.row({"disk reads", util::fmtInt(r.diskReads)});
    summary.row({"cache insertions", util::fmtInt(r.cacheInsertions)});
    std::cout << summary.render() << "\n";

    util::TextTable cpu;
    cpu.header({"CPU category", "share of busy time"});
    for (int c = 0; c < osnode::NumCpuCategories; ++c)
        cpu.row({osnode::cpuCategoryName(c), util::fmtPct(r.cpuShare[c])});
    std::cout << cpu.render() << "\n";

    util::TextTable msgs;
    msgs.header({"msg type", "messages", "bytes", "avg size"});
    for (MsgKind kind : {MsgKind::Load, MsgKind::Flow, MsgKind::Forward,
                         MsgKind::Caching, MsgKind::File}) {
        const auto &s = r.comm.of(kind);
        msgs.row({msgKindName(kind), util::fmtInt(s.msgs),
                  util::fmtInt(s.bytes), util::fmtF(s.avgSize(), 1)});
    }
    auto total = r.comm.total();
    msgs.separator();
    msgs.row({"TOTAL", util::fmtInt(total.msgs), util::fmtInt(total.bytes),
              ""});
    std::cout << msgs.render();

    if (!csv_path.empty()) {
        std::ofstream csv(csv_path);
        if (!csv)
            util::fatal("cannot write ", csv_path);
        csv << summary.renderCsv() << "\n" << cpu.renderCsv() << "\n"
            << msgs.renderCsv();
        std::cout << "\nCSV written to " << csv_path << "\n";
    }
    if (stats_dump) {
        std::cout << "\n";
        cluster.dumpStats(std::cout);
    }
    return 0;
}
