/**
 * @file
 * Synthetic WWW trace generation.
 *
 * We do not have the paper's trace files (Clarknet, Forth, Nasa,
 * Rutgers), so we synthesize traces that match the published
 * characteristics (Table 1): number of files, average file size, number
 * of requests, and average *requested* size — plus the heavy-tailed
 * properties the paper leans on: lognormal file sizes and Zipf-like
 * popularity (Breslau et al., INFOCOM'99; alpha < 1, the paper's model
 * defaults to 0.8).
 *
 * The average requested size differs from the average file size because
 * popularity correlates with size (in all four traces popular files are
 * smaller than average). We reproduce that with a mixture mapping: with
 * probability theta a request's Zipf rank indexes files in ascending size
 * order, otherwise it indexes a random permutation. theta is solved from
 * the target average requested size, so generated traces hit the Table 1
 * request-size column closely (validated by the table1_traces bench).
 */

#ifndef PRESS_WORKLOAD_TRACE_GEN_HPP
#define PRESS_WORKLOAD_TRACE_GEN_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/random.hpp"
#include "workload/trace.hpp"

namespace press::workload {

/** Parameters of a synthetic trace. */
struct TraceSpec {
    std::string name = "synthetic";
    std::size_t numFiles = 10000;
    double avgFileSize = 16e3;   ///< bytes, arithmetic mean
    std::uint64_t numRequests = 1000000;
    double avgRequestSize = 0;   ///< bytes; 0 = no size-rank targeting
    double zipfAlpha = 0.8;      ///< popularity skew
    double sizeSigma = 1.3;      ///< lognormal shape of file sizes

    /**
     * Temporal locality beyond popularity: with this probability a
     * request repeats one of the last `temporalWindow` requests
     * (LRU-stack model) instead of drawing fresh from the Zipf
     * distribution. Real WWW traces show both effects; 0 disables it.
     */
    double temporalLocality = 0.0;
    std::size_t temporalWindow = 1000;
    std::uint32_t maxFileSize = 8 * 1024 * 1024; ///< clamp, bytes
    std::uint32_t minFileSize = 128;             ///< clamp, bytes
    std::uint64_t seed = 42;

    /** Scale the request count by @p f (for quick test runs). */
    TraceSpec scaled(double f) const;
};

/** Generate a trace matching @p spec. */
Trace generateTrace(const TraceSpec &spec);

/**
 * Built-in presets reproducing Table 1.
 * @{
 */
TraceSpec clarknetSpec();
TraceSpec forthSpec();
TraceSpec nasaSpec();
TraceSpec rutgersSpec();
/** @} */

/** The four presets in the paper's figure order. */
std::vector<TraceSpec> paperTraceSpecs();

/** The paper preset named @p name, ignoring case ("nasa", "Forth");
 *  nullopt for any other name. */
std::optional<TraceSpec> findPaperTrace(std::string_view name);

} // namespace press::workload

#endif // PRESS_WORKLOAD_TRACE_GEN_HPP
