/**
 * @file
 * The benchmark's own bookkeeping, kept apart from the simulator so its
 * self-test needs no cluster: sample statistics, the metric-name and
 * unit grammar, the metric set printed by name and as the final JSON
 * line, and the correctness gate every run passes through.
 */

#ifndef PERFBENCH_METRICS_HPP
#define PERFBENCH_METRICS_HPP

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/** Median of @p v (mean of the middle pair for an even count). Requires
 *  a non-empty sample. */
double median(std::vector<double> v);

/**
 * Quartiles of @p v exactly as Python's
 * `statistics.quantiles(v, n=4)` computes them (the default
 * "exclusive" method), so the spread the benchmark prints is the spread
 * an outside reader recomputes from the same values. Requires at least
 * two samples.
 */
std::array<double, 3> quartiles(std::vector<double> v);

/** (Q3 - Q1) / median; 0 for a zero median. Requires two samples. */
double relativeSpread(const std::vector<double> &v);

/** Metric names: 1..64 of `[A-Za-z0-9_.-]`, first a letter or digit. */
bool validMetricName(std::string_view name);

/** Units: 1..16 of `[A-Za-z0-9_/%.-]`. */
bool validUnit(std::string_view unit);

/** Shortest decimal that reads back as exactly @p v (every digit the
 *  measurement has, none it does not). */
std::string formatNumber(double v);

struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/** An ordered set of named metrics; names are unique and grammatical. */
class MetricSet
{
  public:
    /** Add one metric. Returns false (and adds nothing) on a bad name,
     *  a bad unit, a duplicate name or a non-finite value. */
    bool add(const std::string &name, double value, const std::string &unit);

    const std::vector<Metric> &all() const { return _metrics; }
    const Metric *find(std::string_view name) const;

    /** One `name value unit` line per metric. */
    void print(std::ostream &os, std::string_view prefix) const;

  private:
    std::vector<Metric> _metrics;
};

/** The result object the benchmark prints as its last line. */
std::string resultJson(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet &metrics);

/**
 * What the gate needs from one simulated cell, copied out of the
 * simulator's results. `exact` holds every value that must repeat
 * byte for byte across repetitions and across the plain, traced and
 * checked runs: the sim_* metrics and the exact counts.
 */
struct CellOutcome {
    std::string label;
    bool openLoop = false;
    std::uint64_t measured = 0; ///< replies in the measured window
    std::uint64_t lost = 0;     ///< issued but never answered
    std::uint64_t bad = 0;      ///< requests that failed to parse
    std::uint64_t offered = 0;  ///< open loop: arrivals while measuring
    std::uint64_t dropped = 0;  ///< open loop: arrivals shed
    std::uint64_t inFlightEnd = 0; ///< open loop: unanswered at drain
    /** Open loop: closed-loop warm-up clients whose last replies may
     *  land after the measurement reset (0 without warm-up). */
    std::uint64_t warmupClients = 0;
    std::vector<std::pair<std::string, double>> exact;

    /** Requests that failed: lost, shed or malformed. */
    std::uint64_t failed() const { return lost + dropped + bad; }
};

/** Every exact value of @p c, rendered losslessly, one per line. */
std::string fingerprint(const CellOutcome &c);

/** Collects correctness failures; a run with any is reported incorrect
 *  and exits non-zero. */
class Gate
{
  public:
    /** Per-cell invariants: closed loop loses nothing; open loop
     *  conserves arrivals (nothing left in flight, and measured +
     *  dropped == offered plus at most one warm-up straggler per
     *  warm-up client); no malformed requests. */
    void checkCell(const CellOutcome &c, std::string_view where);

    /** @p got must match @p ref cell for cell, byte for byte. */
    void checkSame(const std::vector<CellOutcome> &ref,
                   const std::vector<CellOutcome> &got,
                   std::string_view where);

    void require(bool ok, std::string_view what);

    bool ok() const { return _failures.empty(); }
    const std::vector<std::string> &failures() const { return _failures; }

  private:
    std::vector<std::string> _failures;
};

} // namespace perfbench

#endif // PERFBENCH_METRICS_HPP
