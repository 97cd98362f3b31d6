/**
 * @file
 * The benchmark's four workloads, built from the workload seed alone.
 * The reason each one exists is in README.md next to this file.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"
#include "workload/trace_gen.hpp"

namespace perfbench {

/** One simulated cluster run: a configuration and its run() cap. */
struct Cell {
    std::string label;
    press::core::PressConfig config;
    std::uint64_t requests = 0; ///< measured requests (run() cap)
};

struct Workload {
    std::string name;
    press::workload::TraceSpec trace;
    std::vector<Cell> cells;     ///< run in order, one thread
    std::size_t primary = 0;     ///< the cell sim_* metrics come from
    int baseline = -1;           ///< paper8: the TCP/cLAN cell
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build workload @p name for @p seed. Fatal on an unknown name. The
 *  seed fixes TraceSpec::seed and PressConfig::seed; tracing and both
 *  checkers are set explicitly off, whatever the environment says. */
Workload makeWorkload(std::string_view name, std::uint64_t seed);

/** Requests the cell's feed hands out: the warm-up pass plus the
 *  measured requests (PressCluster::run's own arithmetic). */
std::uint64_t issuedRequests(const Cell &cell, std::size_t trace_requests);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
