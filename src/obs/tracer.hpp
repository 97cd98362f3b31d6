/**
 * @file
 * Tracer: the per-cluster observability hub, plus the TRACE_* macros the
 * instrumented layers use.
 *
 * One Tracer exists per traced cluster run (none at all when tracing is
 * off — every instrumentation site is a null-pointer test and nothing
 * else). It owns one TraceRing per node and the span-derived CPU-time
 * aggregation that lets the Figure-1 breakdown be recomputed from spans
 * and cross-checked against the osnode category counters. The metric
 * rows are not kept here: the cluster reads them from the counters each
 * layer already owns when it takes the snapshot.
 *
 * Determinism: all timestamps come from the owning Simulator, every
 * cluster run owns a private Tracer, and no wall-clock or host state is
 * recorded — so two runs of the same configuration produce byte-identical
 * traces, whatever the sweep's --jobs value.
 */

#ifndef PRESS_OBS_TRACER_HPP
#define PRESS_OBS_TRACER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace_ring.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace press::obs {

/** One flattened metric sample (for snapshots and serialization). */
struct MetricSample {
    std::string name;        ///< metric name
    int node = -1;           ///< owning node; -1 = cluster rollup
    std::uint64_t value = 0; ///< counter value / high-water mark / count
};

/**
 * A self-contained snapshot of everything a traced run observed: the
 * retained events, the span-derived and counter-derived CPU attribution,
 * and the metrics. Plain data — it survives the cluster that produced it
 * and is what the exporters (chrome_trace, trace_io, summary) consume.
 */
struct TraceData {
    std::uint32_t nodes = 0;
    std::vector<std::string> categories; ///< CPU category names
    std::vector<std::uint64_t> emitted;  ///< per node, incl. dropped
    std::vector<std::vector<TraceEvent>> events; ///< per node, oldest 1st

    /** Busy ns per [node][category], accumulated from CpuJob span
     *  durations at span end (complete even when the ring wrapped). */
    std::vector<std::vector<std::int64_t>> spanBusy;

    /** The same quantity from FifoResource's category counters; filled
     *  by the cluster. The Figure-1 invariant is spanBusy == counterBusy
     *  exactly. */
    std::vector<std::vector<std::int64_t>> counterBusy;

    /** Per-node rows plus a cluster rollup row per name, read from
     *  their owners and filled by the cluster: counters, then
     *  high-water marks, then histogram counts, each sorted by name. */
    std::vector<MetricSample> metrics;
};

/** The per-cluster trace hub. */
class Tracer
{
  public:
    /**
     * @param sim             clock source (must outlive the tracer)
     * @param nodes           cluster size
     * @param ring_capacity   retained events per node
     * @param categories      CPU category names, indexed by the category
     *                        ids CpuJob spans carry
     */
    Tracer(sim::Simulator &sim, int nodes, std::size_t ring_capacity,
           std::vector<std::string> categories);

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    int nodes() const { return static_cast<int>(_rings.size()); }

    /** Record primitives. @{ */
    void
    spanBegin(int node, Ev code, std::uint32_t req, std::uint64_t arg)
    {
        record(node, code, Phase::Begin, req, arg);
    }
    void
    spanEnd(int node, Ev code, std::uint32_t req, std::uint64_t arg)
    {
        record(node, code, Phase::End, req, arg);
    }
    void
    asyncBegin(int node, Ev code, std::uint32_t req, std::uint64_t arg)
    {
        record(node, code, Phase::AsyncBegin, req, arg);
    }
    void
    asyncEnd(int node, Ev code, std::uint32_t req, std::uint64_t arg)
    {
        record(node, code, Phase::AsyncEnd, req, arg);
    }
    void
    instant(int node, Ev code, std::uint32_t req, std::uint64_t arg)
    {
        record(node, code, Phase::Instant, req, arg);
    }
    void
    counter(int node, Ev code, std::uint64_t value)
    {
        record(node, code, Phase::Counter, 0, value);
    }
    /** @} */

    /** Fold a finished CPU job into the span-derived Figure-1
     *  aggregation (called by CpuProbe at span end). */
    void
    addCpuSpan(int node, int category, sim::Tick duration)
    {
        auto &by_cat = _spanBusy[static_cast<std::size_t>(node)];
        if (category >= 0 &&
            category < static_cast<int>(by_cat.size()))
            by_cat[static_cast<std::size_t>(category)] += duration;
    }

    /** Empty the rings and zero the span aggregation at the
     *  measurement boundary, so both cover the measured window, as
     *  every counter does. */
    void resetAggregates();

    const TraceRing &ring(int node) const
    {
        return _rings.at(static_cast<std::size_t>(node));
    }

    /** Span-derived busy ns for (node, category). */
    sim::Tick
    spanBusy(int node, int category) const
    {
        return _spanBusy.at(static_cast<std::size_t>(node))
            .at(static_cast<std::size_t>(category));
    }

    /** Snapshot everything (counterBusy comes back zeroed and metrics
     *  empty — the caller owns those counters and fills them in). */
    TraceData snapshot() const;

  private:
    void
    record(int node, Ev code, Phase phase, std::uint32_t req,
           std::uint64_t arg)
    {
        TraceEvent e;
        e.tick = _sim.now();
        e.arg = arg;
        e.req = req;
        e.code = code;
        e.phase = phase;
        e.node = static_cast<std::uint8_t>(node);
        _rings[static_cast<std::size_t>(node)].push(e);
    }

    sim::Simulator &_sim;
    std::vector<TraceRing> _rings;
    std::vector<std::string> _categories;
    std::vector<std::vector<std::int64_t>> _spanBusy;
};

/**
 * sim::ResourceListener feeding a Tracer: CPU jobs become serial spans
 * attributed by category (the span-derived Figure-1 input), disk jobs
 * become read spans, and every queue movement samples the depth as a
 * counter event.
 */
class ResourceProbe final : public sim::ResourceListener
{
  public:
    enum class Kind { Cpu, Disk };

    ResourceProbe(Tracer &tracer, int node, Kind kind);

    void jobStarted(const sim::FifoResource &res, int category) override;
    void jobFinished(const sim::FifoResource &res, int category,
                     sim::Tick busy) override;
    void depthChanged(const sim::FifoResource &res,
                      std::size_t depth) override;

  private:
    Tracer &_tracer;
    int _node;
    Kind _kind;
};

} // namespace press::obs

/**
 * Instrumentation macros. `tracer` is an obs::Tracer* that is null when
 * tracing is off, so a disabled site costs one predictable branch; with
 * PRESS_TRACE_DISABLED defined the sites compile away entirely.
 */
#ifndef PRESS_TRACE_DISABLED
#define PRESS_TRACE_CALL(tracer, call)                                      \
    do {                                                                    \
        if (tracer)                                                         \
            (tracer)->call;                                                 \
    } while (0)
#else
#define PRESS_TRACE_CALL(tracer, call)                                      \
    do {                                                                    \
        (void)sizeof(tracer);                                               \
    } while (0)
#endif

#define PRESS_TRACE_ASYNC_BEGIN(tracer, node, code, req, arg)               \
    PRESS_TRACE_CALL(tracer, asyncBegin((node), (code), (req), (arg)))
#define PRESS_TRACE_ASYNC_END(tracer, node, code, req, arg)                 \
    PRESS_TRACE_CALL(tracer, asyncEnd((node), (code), (req), (arg)))
#define PRESS_TRACE_INSTANT(tracer, node, code, req, arg)                   \
    PRESS_TRACE_CALL(tracer, instant((node), (code), (req), (arg)))

#endif // PRESS_OBS_TRACER_HPP
