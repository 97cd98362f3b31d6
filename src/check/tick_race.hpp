/**
 * @file
 * TickRaceHunter: the determinism race detector.
 *
 * Two events scheduled for the same simulated tick in *different*
 * scheduling domains have no defined order — a parallel kernel could
 * fire them either way. The simulator's results must therefore not
 * depend on which one fires first; when they do, the code has a latent
 * cross-node race that a FIFO tie-break silently hides.
 *
 * The hunter makes the hidden orderings visible: it reruns a scenario
 * under EventQueue's SeededPermute tie-break for K different seeds
 * (each seed deterministically permutes the equal-tick cross-domain
 * firing order while preserving intra-domain FIFO) and compares every
 * run's fingerprint — event count, final tick, a caller-computed hash
 * of the headline results, and the full per-node obs trace — against
 * the FIFO baseline. Any divergence is a race; the trace diff names
 * the first colliding events per node.
 *
 * The harness is deliberately core-agnostic (press_check cannot link
 * press_core): a scenario is a callable that builds and runs whatever
 * simulation it wants under a given (policy, seed) and returns a
 * RunFingerprint. tools/press_races.cpp and the tests supply the
 * cluster-building lambdas.
 */

#ifndef PRESS_CHECK_TICK_RACE_HPP
#define PRESS_CHECK_TICK_RACE_HPP

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/tracer.hpp"
#include "sim/event_queue.hpp"

namespace press::check {

/** Order-independent-ness evidence of one simulation run. */
struct RunFingerprint {
    std::uint64_t eventsExecuted = 0;
    sim::Tick finalTick = 0;
    /** Caller-computed hash over the headline results (throughput,
     *  response times, byte counts, ...). */
    std::uint64_t resultsHash = 0;
    /** Short printable rendering of the hashed results, shown when
     *  resultsHash diverges. */
    std::string headline;
    /** Per-node event streams; optional but strongly recommended —
     *  without them a divergence cannot name the colliding events. */
    std::shared_ptr<const obs::TraceData> trace;
};

/** Splitmix64-style hash combiner for building resultsHash values. */
constexpr std::uint64_t
hashCombine(std::uint64_t h, std::uint64_t v)
{
    std::uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) +
                           (h >> 2));
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * A scenario: run the simulation under the given tie-break policy and
 * seed, return its fingerprint. Must be callable concurrently from
 * several threads (each call builds its own Simulator).
 */
using Scenario =
    std::function<RunFingerprint(sim::TieBreak, std::uint64_t)>;

/** One detected divergence between a seeded run and the baseline. */
struct RaceFinding {
    std::string scenario;
    std::uint64_t seed = 0;  ///< permutation seed that diverged
    std::string what;        ///< diverging component, e.g. "trace"
    int node = -1;           ///< trace diffs: node of the collision
    std::size_t index = 0;   ///< trace diffs: event index on the node
    std::string baseline;    ///< value/event under FIFO
    std::string observed;    ///< value/event under the permutation

    /** One-line rendering for logs and reports. */
    std::string format() const;
};

/** Render one trace event for RaceFinding baseline/observed fields. */
std::string formatTraceEvent(const obs::TraceEvent &event);

/**
 * The race-hunting harness: scenarios x (1 FIFO baseline + K seeded
 * permutations), compared pairwise against the baseline.
 */
class TickRaceHunter
{
  public:
    struct Options {
        int seeds = 8;                ///< permutation runs per scenario
        std::uint64_t baseSeed = 1;   ///< root of the seed schedule
        int jobs = 1;                 ///< worker threads across runs
    };

    TickRaceHunter() : TickRaceHunter(Options()) {}
    explicit TickRaceHunter(Options opts);

    /** Queue @p scenario under @p name; names appear in findings. */
    void addScenario(std::string name, Scenario scenario);

    /**
     * Execute every run (scenarios x (seeds + 1), across opts.jobs
     * threads) and compare. Findings come out in (scenario, seed)
     * order whatever the jobs count.
     *
     * @return true when every scenario was divergence-free.
     */
    bool run();

    bool clean() const { return _totalFindings == 0; }
    /** Total divergences (including ones beyond the retained cap). */
    std::uint64_t totalFindings() const { return _totalFindings; }
    /** Retained findings (capped at MaxRetained). */
    const std::vector<RaceFinding> &findings() const { return _findings; }
    /** Simulation runs executed. */
    int runsExecuted() const { return _runs; }
    /** Multi-line report of everything retained. */
    std::string report() const;

    /** The k-th permutation seed derived from @p base (deterministic,
     *  never zero). */
    static std::uint64_t seedForRun(std::uint64_t base, int k);

    /** Retained-finding cap; further divergences only bump the
     *  counter. */
    static constexpr std::size_t MaxRetained = 1024;

  private:
    struct Entry {
        std::string name;
        Scenario scenario;
    };

    /** Compare one seeded fingerprint against the scenario baseline,
     *  appending findings. */
    void compare(const std::string &name, std::uint64_t seed,
                 const RunFingerprint &base, const RunFingerprint &alt);
    void diffTraces(const std::string &name, std::uint64_t seed,
                    const obs::TraceData &base,
                    const obs::TraceData &alt);
    void record(RaceFinding finding);

    Options _opts;
    std::vector<Entry> _scenarios;
    std::vector<RaceFinding> _findings;
    std::uint64_t _totalFindings = 0;
    int _runs = 0;
    bool _ran = false;
};

} // namespace press::check

#endif // PRESS_CHECK_TICK_RACE_HPP
