/**
 * @file
 * Workload analysis tool: everything you want to know about a trace
 * before running a cluster on it.
 *
 * Prints population statistics, a Zipf-skew estimate (log-log rank/
 * frequency regression — the method of Breslau et al., whose model the
 * paper adopts), the file-size distribution, and the LRU miss-ratio
 * curve from a one-pass stack-distance analysis — i.e. how much cache a
 * node (or the cluster) needs for any target hit rate, the quantity
 * PRESS's whole design revolves around.
 *
 * Usage: trace_inspect [--trace clarknet|forth|nasa|rutgers | --load FILE]
 *                      [--requests N]
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>

#include "stats/histogram.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"
#include "util/table.hpp"
#include "workload/stack_distance.hpp"
#include "workload/trace_gen.hpp"

using namespace press;

namespace {

/** Least-squares slope of log(freq) vs log(rank) over the top files. */
double
estimateZipfAlpha(const workload::Trace &trace)
{
    std::vector<std::uint64_t> counts(trace.files.count(), 0);
    for (auto f : trace.requests)
        ++counts[f];
    std::sort(counts.rbegin(), counts.rend());
    std::size_t top = std::min<std::size_t>(counts.size(), 1000);
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < top && counts[i] > 0; ++i) {
        double x = std::log(static_cast<double>(i + 1));
        double y = std::log(static_cast<double>(counts[i]));
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        ++n;
    }
    if (n < 2)
        return 0;
    double slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    return -slope; // P(i) ~ i^-alpha
}

} // namespace

int
main(int argc, char **argv)
{
    std::string trace_name = "clarknet", load_path;
    std::uint64_t requests = 0;
    bool trace_given = false;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trace")) {
            trace_name = util::cliValue(argc, argv, i);
            trace_given = true;
        } else if (!std::strcmp(argv[i], "--load")) {
            load_path = util::cliValue(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--requests")) {
            requests = util::cliU64(argc, argv, i);
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
        if (requests)
            spec->numRequests = requests;
        trace = workload::generateTrace(*spec);
    }

    std::cout << "== " << trace.name << " ==\n\n";
    util::TextTable pop;
    pop.header({"quantity", "value"});
    pop.row({"files", util::fmtInt(trace.files.count())});
    pop.row({"requests", util::fmtInt(trace.requests.size())});
    pop.row({"working set",
             util::fmtF(trace.files.totalBytes() / 1e6, 1) + " MB"});
    pop.row({"avg file size",
             util::fmtF(trace.files.averageSize() / 1e3, 1) + " KB"});
    pop.row({"avg requested size",
             util::fmtF(trace.averageRequestSize() / 1e3, 1) + " KB"});
    pop.row({"bytes requested",
             util::fmtF(trace.requestedBytes() / 1e9, 2) + " GB"});
    pop.row({"Zipf alpha (fit)",
             util::fmtF(estimateZipfAlpha(trace), 2)});
    std::cout << pop.render() << "\n";

    std::cout << "file sizes (log2 buckets, bytes):\n";
    stats::LogHistogram sizes;
    for (std::size_t f = 0; f < trace.files.count(); ++f)
        sizes.add(trace.files.size(static_cast<storage::FileId>(f)));
    std::cout << sizes.render(26) << "\n";

    std::cout << "LRU miss-ratio curve (one-pass stack distance):\n";
    auto curve = workload::analyzeStackDistances(trace);
    util::TextTable mrc;
    mrc.header({"cache size", "miss ratio", "hit ratio"});
    for (std::uint64_t mb : {8, 16, 32, 64, 128, 256, 400, 512, 1024}) {
        double miss = curve.missRatio(mb * 1000 * 1000);
        mrc.row({std::to_string(mb) + " MB", util::fmtPct(miss),
                 util::fmtPct(1 - miss)});
    }
    std::cout << mrc.render();
    std::cout << "\ncold misses: "
              << util::fmtPct(static_cast<double>(curve.coldMisses) /
                              std::max<std::uint64_t>(curve.accesses, 1))
              << " of accesses\n";
    for (double target : {0.10, 0.05, 0.02}) {
        auto cap = curve.capacityForMissRatio(target);
        std::cout << "cache for <= " << util::fmtPct(target)
                  << " misses: ";
        if (cap)
            std::cout << util::fmtF(cap / 1e6, 0) << " MB\n";
        else
            std::cout << "unreachable (cold misses dominate)\n";
    }
    return 0;
}
