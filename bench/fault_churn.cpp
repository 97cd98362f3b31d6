/**
 * @file
 * Extension (X10): throughput under node churn and recovery.
 *
 * The paper measures PRESS on a healthy cluster; this bench kills k of
 * N nodes mid-trace (optionally restarting them later) and measures
 * what the paper's architecture costs to survive: the depth of the
 * throughput dip, the time to recover to 95% of steady state, tail
 * latency during churn, membership view convergence, and the recovery
 * traffic (retries, re-announced directory entries). A run that loses
 * a request — a client slot left in flight with no retry path — exits
 * nonzero; the fault subsystem's contract is zero lost requests.
 *
 * Cells cross dissemination kinds (PB flood, gossip, tree) with both
 * directory modes, plus a TCP baseline, so the dip/recovery numbers
 * compare how each dissemination strategy propagates the view change
 * and how each directory rebuilds (replicated: mask cleanup; sharded:
 * ownership remap + re-announcement).
 *
 * Throughput-over-time comes from ClusterResults::replyBuckets (valid
 * replies per 100 ms of simulated time), which the cluster records in
 * fault-mode runs. warmupFraction is 0 so fault ticks are absolute
 * simulation time and bucket 0 starts at the first request.
 */

#include <algorithm>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "util/cli.hpp"

using namespace press;
using namespace press::bench;
using namespace press::core;

namespace {

struct ChurnOptions {
    int nodes = 16;
    int kill = 2;              ///< nodes crashed mid-trace
    std::string plan;          ///< explicit schedule; overrides --kill
    sim::Tick at = 2 * util::SEC;      ///< first crash tick
    sim::Tick restart = 5 * util::SEC; ///< first restart (0 = none)
    std::uint64_t requests = 200000;
    int jobs = 0;
    bool quick = false;
};

ChurnOptions
parseArgs(int argc, char **argv)
{
    // Hand-rolled: Options::parse dies on flags it does not know.
    ChurnOptions o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--nodes") {
            o.nodes = static_cast<int>(
                util::cliInt(argc, argv, i, 2, MaxNodes));
        } else if (a == "--kill") {
            o.kill = static_cast<int>(util::cliInt(argc, argv, i, 1, 64));
        } else if (a == "--plan") {
            o.plan = util::cliValue(argc, argv, i);
        } else if (a == "--at-ms") {
            o.at = util::cliInt(argc, argv, i, 1, 1000000) * util::MS;
        } else if (a == "--restart-ms") {
            o.restart =
                util::cliInt(argc, argv, i, 0, 1000000) * util::MS;
        } else if (a == "--requests") {
            o.requests = util::cliU64(argc, argv, i);
        } else if (a == "--jobs") {
            o.jobs = static_cast<int>(util::cliInt(argc, argv, i, 0, 256));
        } else if (a == "--quick") {
            o.quick = true;
            o.requests = 60000;
        } else if (a == "--help") {
            std::cout
                << "usage: fault_churn [--nodes N] [--kill K] "
                   "[--at-ms T] [--restart-ms T|0] [--requests R]\n"
                   "                   [--plan 'verb:node@time;...'] "
                   "[--jobs J] [--quick]\n"
                   "--plan takes a FaultPlan spec (verbs crash/restart/"
                   "leave/join,\ntime <int>(us|ms|s)) and overrides the "
                   "--kill/--at-ms/--restart-ms schedule.\n";
            std::exit(0);
        } else {
            util::fatal("unknown option '", a, "' (try --help)");
        }
    }
    if (o.kill >= o.nodes)
        util::fatal("--kill ", o.kill, " must leave at least one of the ",
                    o.nodes, " nodes alive");
    return o;
}

/** The churn schedule every cell shares: crash k nodes (staggered 10 ms
 *  apart, skipping node 0 so the lowest id stays up as a stable
 *  fallback), restart them in order if requested. */
fault::FaultPlan
makePlan(const ChurnOptions &o)
{
    fault::FaultPlan plan;
    for (int i = 0; i < o.kill; ++i) {
        int node = 1 + i;
        sim::Tick when = o.at + static_cast<sim::Tick>(i) * 10 * util::MS;
        plan.crash(node, when);
        if (o.restart > 0)
            plan.restart(node, o.restart +
                                   static_cast<sim::Tick>(i) * 10 *
                                       util::MS);
    }
    return plan;
}

struct ChurnMetrics {
    double steady = 0;    ///< replies/bucket before the first crash
    double dipFrac = 0;   ///< worst bucket in the churn window / steady
    double recoverS = -1; ///< first bucket back at >= 95% steady (-1:
                          ///< never within the run)
};

/** Derive dip depth and recovery time from the reply-rate buckets. */
ChurnMetrics
analyze(const ClusterResults &r, sim::Tick fault_at)
{
    ChurnMetrics m;
    const auto &b = r.replyBuckets;
    auto fault_idx = static_cast<std::size_t>(
        fault_at / ClusterResults::ReplyBucket);
    // The final bucket is partial (the run ends inside it); drop it.
    std::size_t usable = b.size() > 1 ? b.size() - 1 : 0;
    if (usable <= fault_idx + 1 || fault_idx < 1)
        return m; // run too short to frame the fault window
    double sum = 0;
    for (std::size_t i = 0; i < fault_idx; ++i)
        sum += static_cast<double>(b[i]);
    m.steady = sum / static_cast<double>(fault_idx);
    if (m.steady <= 0)
        return m;
    double worst = m.steady;
    for (std::size_t i = fault_idx; i < usable; ++i)
        worst = std::min(worst, static_cast<double>(b[i]));
    m.dipFrac = worst / m.steady;
    for (std::size_t i = fault_idx; i < usable; ++i) {
        if (static_cast<double>(b[i]) >= 0.95 * m.steady) {
            m.recoverS = static_cast<double>(i - fault_idx) *
                         sim::nsToSeconds(ClusterResults::ReplyBucket);
            break;
        }
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    ChurnOptions churn = parseArgs(argc, argv);

    // An explicit --plan replaces the stock kill-k schedule; parse
    // errors (PlanError) die here, at the CLI boundary. The churn
    // window for dip/recovery analysis starts at the plan's first
    // event.
    fault::FaultPlan plan;
    if (!churn.plan.empty()) {
        try {
            plan = fault::FaultPlan::parse(churn.plan);
        } catch (const fault::PlanError &e) {
            util::fatal("--plan: ", e.what());
        }
        for (const auto &ev : plan.timeline())
            if (ev.node >= churn.nodes)
                util::fatal("--plan names node ", ev.node,
                            " but the cluster has ", churn.nodes);
        churn.at = plan.timeline().front().at;
    } else {
        plan = makePlan(churn);
    }

    // The shared-bench harness only needs the sweep-level knobs.
    Options opts;
    opts.nodes = churn.nodes;
    opts.jobs = churn.jobs;
    opts.quick = churn.quick;
    opts.maxRequests = churn.requests;

    if (!churn.plan.empty()) {
        std::cout << "== Fault churn: plan " << plan.spec() << " on "
                  << churn.nodes << " nodes ==\n";
    } else {
        std::cout << "== Fault churn: kill " << churn.kill << " of "
                  << churn.nodes << " nodes at "
                  << sim::nsToSeconds(churn.at) << " s";
        if (churn.restart > 0)
            std::cout << ", restart at "
                      << sim::nsToSeconds(churn.restart) << " s";
        std::cout << " ==\n";
    }

    workload::TraceSpec spec = workload::clarknetSpec();
    if (churn.requests && spec.numRequests > churn.requests)
        spec.numRequests = churn.requests;
    workload::Trace trace = workload::generateTrace(spec);

    struct CellSpec {
        const char *name;
        Protocol protocol;
        Version version;
        Dissemination diss;
        DirectoryMode dir;
    };
    const std::vector<CellSpec> cells = {
        {"VIA-V5 PB/Repl", Protocol::ViaClan, Version::V5,
         Dissemination::piggyBack(), DirectoryMode::Replicated},
        // Gossip/tree rumors need full messages, not the RMW load
        // word, so those cells run V0 (as in scalability_nodes).
        {"VIA-V0 G4/Repl", Protocol::ViaClan, Version::V0,
         Dissemination::gossip(), DirectoryMode::Replicated},
        {"VIA-V0 G4/Shard", Protocol::ViaClan, Version::V0,
         Dissemination::gossip(), DirectoryMode::Sharded},
        {"VIA-V0 T4/Shard", Protocol::ViaClan, Version::V0,
         Dissemination::tree(), DirectoryMode::Sharded},
        {"TCP PB/Repl", Protocol::TcpClan, Version::V0,
         Dissemination::piggyBack(), DirectoryMode::Replicated},
    };

    ParallelRunner runner(opts);
    for (const auto &c : cells) {
        Cell cell;
        cell.trace = &trace;
        cell.config.protocol = c.protocol;
        cell.config.version = c.version;
        cell.config.dissemination = c.diss;
        cell.config.directoryMode = c.dir;
        cell.config.fault = plan;
        // Absolute fault ticks: no warm-up pass, measure from t=0.
        cell.config.warmupFraction = 0.0;
        // Below-saturation load so the dip is visible against a stable
        // steady-state rate (see scalability_nodes for the rationale).
        cell.config.clientsPerNode = 8;
        cell.nodes = churn.nodes;
        cell.maxRequests = churn.requests;
        runner.add(std::move(cell));
    }
    runner.run();

    util::TextTable t;
    t.header({"config", "reqs/s", "dip", "recover s", "view ms",
              "retried", "client rt", "reann", "p99 ms", "p999 ms",
              "lost"});
    bool lost_any = false;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = runner[i];
        ChurnMetrics m = analyze(r, churn.at);
        lost_any = lost_any || r.requestsLost > 0;
        t.row({cells[i].name, util::fmtF(r.throughput, 0),
               m.steady > 0 ? util::fmtPct(m.dipFrac) : "n/a",
               m.recoverS >= 0 ? util::fmtF(m.recoverS, 1) : "n/a",
               util::fmtF(r.viewConvergeMs, 2),
               std::to_string(r.requestsRetried),
               std::to_string(r.clientRetries),
               std::to_string(r.reAnnouncedFiles),
               util::fmtF(r.p99LatencyMs, 1),
               util::fmtF(r.p999LatencyMs, 1),
               std::to_string(r.requestsLost)});
    }
    std::cout << t.render();
    std::cout << "\ndip = worst 100 ms reply rate during churn relative "
                 "to pre-crash steady state;\nrecover = time from first "
                 "crash back to >= 95% of steady state; view = worst\n"
                 "survivor lag marking a dead node down. lost must be 0: "
                 "every request issued to\na crashed node is retried "
                 "(server-side re-dispatch or client re-issue).\n";

    const char *json_path = "BENCH_fault.json";
    std::ofstream json(json_path);
    if (!json) {
        std::cerr << "cannot write " << json_path << "\n";
        return 1;
    }
    json << "{\n  \"benchmark\": \"fault_churn\",\n"
         << "  \"trace\": \"" << trace.name << "\",\n"
         << "  \"nodes\": " << churn.nodes << ",\n"
         << "  \"kill\": " << churn.kill << ",\n"
         << "  \"at_s\": " << sim::nsToSeconds(churn.at) << ",\n"
         << "  \"restart_s\": " << sim::nsToSeconds(churn.restart)
         << ",\n  \"plan\": \"" << plan.spec() << "\",\n  \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const auto &r = runner[i];
        ChurnMetrics m = analyze(r, churn.at);
        json << (i ? ",\n" : "\n") << "    {\"config\": \""
             << cells[i].name << "\", \"throughput\": " << r.throughput
             << ", \"steady_per_bucket\": " << m.steady
             << ", \"dip_frac\": " << m.dipFrac
             << ", \"recover_s\": " << m.recoverS
             << ", \"view_converge_ms\": " << r.viewConvergeMs
             << ", \"p99_ms\": " << r.p99LatencyMs
             << ", \"p999_ms\": " << r.p999LatencyMs
             << ", \"retried\": " << r.requestsRetried
             << ", \"client_retries\": " << r.clientRetries
             << ", \"stale_drops\": " << r.staleDrops
             << ", \"membership_sends\": " << r.membershipSends
             << ", \"reannounced\": " << r.reAnnouncedFiles
             << ", \"dropped_sends\": " << r.droppedSends
             << ", \"rx_errors\": " << r.rxErrors
             << ", \"lost\": " << r.requestsLost
             << ", \"reply_buckets\": [";
        for (std::size_t b = 0; b < r.replyBuckets.size(); ++b)
            json << (b ? "," : "") << r.replyBuckets[b];
        json << "]}";
    }
    json << "\n  ]\n}\n";
    json.close();
    std::cout << "written: " << json_path << "\n";

    if (lost_any) {
        std::cerr << "FAIL: requests lost during churn\n";
        return 1;
    }
    return 0;
}
