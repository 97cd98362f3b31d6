/**
 * @file
 * Shared harness for the paper-reproduction benches.
 *
 * Every bench binary reproduces one table or figure of the paper. By
 * default traces are replayed with a request cap that keeps a sweep
 * over every binary in build/bench in the minutes range;
 * pass --full for the complete traces (paper-scale, slower) or --quick
 * for a fast smoke run.
 *
 * The cells of a figure or table (one cluster run each) are mutually
 * independent, so the benches build the full grid first and hand it to
 * ParallelRunner, which replays the cells across worker threads
 * (--jobs N, default one per hardware thread). Results come back in
 * grid order whatever the completion order, and each cell runs in its
 * own Simulator/PressCluster with RNG seeds taken from its config — so
 * the printed output is byte-identical to a sequential run.
 */

#ifndef PRESS_BENCH_COMMON_HPP
#define PRESS_BENCH_COMMON_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "util/table.hpp"
#include "workload/trace_gen.hpp"

namespace press::bench {

/** Command-line options shared by all benches. */
struct Options {
    std::uint64_t maxRequests = 600000; ///< per-run cap (0 = no cap)
    int nodes = 8;
    /** The full `--nodes` operand as a comma list. Benches that sweep
     *  cluster sizes iterate this; single-size benches read `nodes`
     *  (the first element). Empty until --nodes is given, so sweeps
     *  can fall back to their own default ladder. */
    std::vector<int> nodesList;
    int jobs = 0; ///< sweep worker threads (0 = hardware concurrency)
    bool quick = false;

    /**
     * Nonzero runs every cell under the event kernel's SeededPermute
     * tie-break with this seed: equal-tick events fire in a permuted
     * cross-domain order (see check::TickRaceHunter). Results should
     * not move; a shift exposes a tick-race. 0 = FIFO, the default
     * bit-identical ordering.
     */
    std::uint64_t permuteSeed = 0;

    /** Trace every cell (also implied by PRESS_TRACE=1) and export the
     *  rings to traceDir via exportTraces(). */
    bool trace = false;
    std::string traceDir = "traces";

    static Options parse(int argc, char **argv);

    /** Worker-thread count with the 0 default resolved; always >= 1. */
    int resolvedJobs() const;
};

/** Cache of generated traces (generation is the slow part). */
class TraceSet
{
  public:
    explicit TraceSet(const Options &opts);

    /** The four paper traces, in figure order. */
    const std::vector<workload::Trace> &all() const { return _traces; }

  private:
    std::vector<workload::Trace> _traces;
};

/** One independent simulation of a sweep: a (trace, config) pair plus
 *  the per-cell overrides benches need. */
struct Cell {
    const workload::Trace *trace = nullptr;
    core::PressConfig config;
    int nodes = 0;                 ///< 0 = Options::nodes
    std::uint64_t maxRequests = 0; ///< run() cap; 0 = whole trace
};

/**
 * Thread pool over independent simulation cells.
 *
 * Usage: add() the grid in print order, run() once, then read results
 * by add()-index. Each cell constructs its own PressCluster (own
 * Simulator, own RNGs seeded from the cell's config, own ViaChecker
 * when PRESS_CHECK is set); no state is shared between cells, and
 * results land at their add()-index, so output derived from them is
 * byte-identical whatever the jobs count.
 */
class ParallelRunner
{
  public:
    explicit ParallelRunner(const Options &opts) : _opts(opts) {}

    /** Queue one cell; returns its index into results. */
    std::size_t add(Cell cell);
    std::size_t add(const workload::Trace &trace,
                    core::PressConfig config, int nodes = 0);

    /**
     * Run every queued cell across resolvedJobs() threads (capped at
     * the cell count) and return the results in add() order. The first
     * exception thrown by a cell is rethrown here after all workers
     * stop. Idempotent: later calls return the same results.
     */
    const std::vector<core::ClusterResults> &run();

    const core::ClusterResults &operator[](std::size_t i) const
    {
        return _results.at(i);
    }

    std::size_t size() const { return _cells.size(); }

  private:
    const Options &_opts;
    std::vector<Cell> _cells;
    std::vector<core::ClusterResults> _results;
    bool _ran = false;
};

/** Run one configuration against one trace, synchronously. */
core::ClusterResults runOne(const workload::Trace &trace,
                            core::PressConfig config,
                            const Options &opts);

/**
 * Export every traced cell of a finished runner into opts.traceDir:
 * <bench_id>_cell<k>.trace.json (Chrome trace_event, for Perfetto) and
 * <bench_id>_cell<k>.ptrace (binary, for tools/press_trace), then run
 * the Figure-1 span-vs-counter cross-check on each.
 *
 * @return true when every traced cell passed the cross-check (cells
 *         without trace data are skipped); mismatch details go to
 *         stderr. No-op returning true when tracing was off.
 */
bool exportTraces(const std::string &bench_id, const ParallelRunner &runner,
                  const Options &opts);

/** A gain cell: "+" then util::fmtPct(@p fraction). Built by appending:
 *  GCC 12 at -O3 flags "literal" + std::string&& with a false
 *  -Wrestrict. */
std::string plusPct(double fraction);

/** Print the standard bench header. */
void banner(const std::string &id, const std::string &what,
            const Options &opts);

} // namespace press::bench

#endif // PRESS_BENCH_COMMON_HPP
