#include "bench_common.hpp"

#include <atomic>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "obs/chrome_trace.hpp"
#include "obs/summary.hpp"
#include "obs/trace_io.hpp"
#include "util/cli.hpp"
#include "util/logging.hpp"

namespace press::bench {

namespace {

/**
 * Run fn(0..n-1) across up to @p jobs threads, each index exactly once.
 * Indices are claimed from a shared counter, so threads stay busy even
 * when per-index cost varies wildly (a disk-bound cell can take 10x a
 * cached one). The first exception is captured and rethrown after all
 * workers finish, keeping partial results intact.
 */
template <typename Fn>
void
forEachIndex(std::size_t n, int jobs, Fn &&fn)
{
    if (n == 0)
        return;
    if (jobs > static_cast<int>(n))
        jobs = static_cast<int>(n);
    if (jobs <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr first_error;
    auto worker = [&]() {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(jobs));
    for (int t = 0; t < jobs; ++t)
        pool.emplace_back(worker);
    for (auto &th : pool)
        th.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

core::ClusterResults
runCell(const Cell &cell, const Options &opts)
{
    core::PressConfig config = cell.config;
    config.nodes = cell.nodes > 0 ? cell.nodes : opts.nodes;
    if (opts.trace)
        config.trace = true;
    if (opts.permuteSeed != 0) {
        config.tieBreak = sim::TieBreak::SeededPermute;
        config.tieBreakSeed = opts.permuteSeed;
    }
    core::PressCluster cluster(config, *cell.trace);
    return cluster.run(cell.maxRequests);
}

} // namespace

Options
Options::parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--full")) {
            o.maxRequests = 0;
        } else if (!std::strcmp(argv[i], "--quick")) {
            o.quick = true;
            o.maxRequests = 120000;
        } else if (!std::strcmp(argv[i], "--requests")) {
            o.maxRequests = util::cliU64(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--nodes")) {
            o.nodesList = util::cliIntList(argc, argv, i, 1, 4096);
            o.nodes = o.nodesList.front();
        } else if (!std::strcmp(argv[i], "--jobs")) {
            o.jobs = static_cast<int>(util::cliInt(argc, argv, i, 0,
                                                   4096));
        } else if (!std::strcmp(argv[i], "--seed")) {
            o.permuteSeed = util::cliU64(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--trace")) {
            o.trace = true;
        } else if (!std::strcmp(argv[i], "--trace-dir")) {
            o.trace = true;
            o.traceDir = util::cliValue(argc, argv, i);
        } else if (!std::strcmp(argv[i], "--help")) {
            std::cout
                << "usage: " << (argc > 0 ? argv[0] : "bench")
                << " [options]\n"
                   "  --full          replay the complete paper-scale "
                   "traces (slow)\n"
                   "  --quick         smoke run: cap each trace at "
                   "120000 requests\n"
                   "  --requests N    cap each trace at N requests "
                   "(0 = no cap)\n"
                   "  --nodes N[,N..] cluster size (default 8); "
                   "size-sweep benches\n"
                   "                  (scalability_nodes) run every "
                   "listed size\n"
                   "  --jobs N        sweep worker threads (default: "
                   "hardware concurrency);\n"
                   "                  output is byte-identical for any "
                   "N\n"
                   "  --seed S        permute equal-tick event order "
                   "under seed S (0 = FIFO);\n"
                   "                  results should not move — a shift "
                   "exposes a tick-race\n"
                   "  --trace         record deterministic traces (see "
                   "docs/observability.md)\n"
                   "                  and export them per cell; "
                   "PRESS_TRACE=1 also records\n"
                   "  --trace-dir D   export directory for --trace "
                   "(default: traces)\n"
                   "  --help          this text\n";
            std::exit(0);
        } else {
            util::fatal("unknown option ", argv[i],
                        " (try --help)");
        }
    }
    return o;
}

int
Options::resolvedJobs() const
{
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

TraceSet::TraceSet(const Options &opts)
{
    std::vector<workload::TraceSpec> specs;
    for (auto spec : workload::paperTraceSpecs()) {
        if (opts.maxRequests && spec.numRequests > opts.maxRequests)
            spec.numRequests = opts.maxRequests;
        specs.push_back(spec);
    }
    // Generation is deterministic per spec (own RNG), so the traces can
    // be built concurrently and still come out identical.
    _traces.resize(specs.size());
    forEachIndex(specs.size(), opts.resolvedJobs(), [&](std::size_t i) {
        _traces[i] = workload::generateTrace(specs[i]);
    });
}

std::size_t
ParallelRunner::add(Cell cell)
{
    PRESS_ASSERT(cell.trace != nullptr, "cell without a trace");
    PRESS_ASSERT(!_ran, "ParallelRunner::add after run");
    _cells.push_back(std::move(cell));
    return _cells.size() - 1;
}

std::size_t
ParallelRunner::add(const workload::Trace &trace,
                    core::PressConfig config, int nodes)
{
    Cell cell;
    cell.trace = &trace;
    cell.config = std::move(config);
    cell.nodes = nodes;
    return add(std::move(cell));
}

const std::vector<core::ClusterResults> &
ParallelRunner::run()
{
    if (_ran)
        return _results;
    _results.resize(_cells.size());
    forEachIndex(_cells.size(), _opts.resolvedJobs(),
                 [&](std::size_t i) {
                     _results[i] = runCell(_cells[i], _opts);
                 });
    _ran = true;
    return _results;
}

core::ClusterResults
runOne(const workload::Trace &trace, core::PressConfig config,
       const Options &opts)
{
    Cell cell;
    cell.trace = &trace;
    cell.config = std::move(config);
    return runCell(cell, opts);
}

bool
exportTraces(const std::string &bench_id, const ParallelRunner &runner,
             const Options &opts)
{
    bool any = false;
    bool ok = true;
    for (std::size_t i = 0; i < runner.size(); ++i) {
        const auto *data = runner[i].trace.get();
        if (!data)
            continue;
        if (!any) {
            std::filesystem::create_directories(opts.traceDir);
            any = true;
        }
        std::string stem = opts.traceDir + "/" + bench_id + "_cell" +
                           std::to_string(i);

        std::ofstream json(stem + ".trace.json", std::ios::binary);
        obs::writeChromeTrace(json, *data);
        json.close();
        if (!json)
            util::fatal("cannot write ", stem, ".trace.json");

        std::ofstream bin(stem + ".ptrace", std::ios::binary);
        obs::writeTrace(bin, *data);
        bin.close();
        if (!bin)
            util::fatal("cannot write ", stem, ".ptrace");

        std::ostringstream diag;
        if (!obs::crossCheck(*data, &diag)) {
            std::cerr << bench_id << " cell " << i
                      << ": span-vs-counter cross-check FAILED\n"
                      << diag.str();
            ok = false;
        }
    }
    if (any)
        std::cout << "traces: " << (ok ? "exported to "
                                       : "cross-check FAILED under ")
                  << opts.traceDir << "/ (" << bench_id
                  << "_cell*.trace.json, *.ptrace)\n";
    return ok;
}

std::string
plusPct(double fraction)
{
    std::string s = "+";
    s += util::fmtPct(fraction);
    return s;
}

void
banner(const std::string &id, const std::string &what,
       const Options &opts)
{
    std::cout << "== " << id << ": " << what << " ==\n";
    std::cout << "(" << opts.nodes << " nodes, "
              << (opts.maxRequests
                      ? std::to_string(opts.maxRequests) +
                            " requests/trace cap"
                      : std::string("full traces"))
              << ", " << opts.resolvedJobs() << " worker thread"
              << (opts.resolvedJobs() == 1 ? "" : "s")
              << "; shapes, not absolute req/s, are the reproduction "
                 "target)\n\n";
}

} // namespace press::bench
