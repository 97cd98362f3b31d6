/**
 * @file
 * CausalityChecker: lookahead validation for the event kernel — the
 * invariant any conservative parallelization of the simulator needs.
 *
 * A conservative parallel discrete-event kernel is only correct when
 * every causal edge that crosses a scheduling domain (one per cluster
 * node, one for the client population) carries at least the link's
 * lookahead: the receiver may then safely advance its local clock by
 * that bound without waiting for the sender. In this simulator the
 * physical justification is the network: nothing crosses nodes faster
 * than the fabric's wire latency.
 *
 * The checker watches two planes:
 *  - every scheduling edge, via sim::ScheduleObserver — an event in
 *    domain A scheduling an event in domain B at delay d is a
 *    cross-domain edge; d must meet the declared bound for (A, B);
 *  - every fabric delivery, via net::FabricObserver — a transfer must
 *    take at least the fabric's unloaded latency for its size (queueing
 *    only ever adds time).
 *
 * CheckMode::Abort panics on the first violation (the mode checked
 * simulations run under); CheckMode::Record accumulates structured
 * reports so tests can inject violations and assert detection.
 */

#ifndef PRESS_CHECK_CAUSALITY_CHECKER_HPP
#define PRESS_CHECK_CAUSALITY_CHECKER_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "via_checker.hpp" // CheckMode

namespace press::check {

/** One detected causality/lookahead violation. */
struct CausalityViolation {
    enum class Kind {
        BelowBound,       ///< cross-domain edge shorter than its bound
        FabricBelowFloor, ///< delivery faster than the unloaded latency
    };

    Kind kind;
    sim::Domain from = sim::NoDomain; ///< scheduling/source domain
    sim::Domain to = sim::NoDomain;   ///< target domain
    sim::Tick tick = 0;               ///< when the edge was created
    sim::Tick delay = 0;              ///< observed edge delay, ns
    sim::Tick bound = 0;              ///< violated lower bound, ns
    std::string detail;               ///< human-readable specifics

    /** One-line rendering for logs and panic messages. */
    std::string format() const;
};

const char *causalityKindName(CausalityViolation::Kind kind);

/**
 * The lookahead checker. Attach it to one Simulator and any number of
 * fabrics; declare per-domain-pair bounds; run; read the verdict.
 */
class CausalityChecker : public sim::ScheduleObserver,
                         public net::FabricObserver
{
  public:
    explicit CausalityChecker(sim::Simulator &sim,
                              CheckMode mode = CheckMode::Abort);
    ~CausalityChecker() override;

    CausalityChecker(const CausalityChecker &) = delete;
    CausalityChecker &operator=(const CausalityChecker &) = delete;

    /** Start observing every scheduling edge of the simulator. */
    void attach();

    /** Stop observing (also done by the destructor). */
    void detach();

    /**
     * Require every scheduling edge from @p from to @p to (a directed
     * pair of distinct domains) to carry a delay of at least @p bound
     * ns. Pairs without a bound are never flagged.
     */
    void setBound(sim::Domain from, sim::Domain to, sim::Tick bound);

    /** Watch @p fabric deliveries against its unloaded latency. */
    void watchFabric(net::Fabric &fabric);

    // ---- sim::ScheduleObserver ----
    void onSchedule(sim::Tick now, sim::Tick when, sim::Domain from,
                    sim::Domain to) override;

    // ---- net::FabricObserver ----
    void onDeliver(const net::Fabric &fabric, net::NodeId src,
                   net::NodeId dst, std::uint64_t bytes,
                   sim::Tick send_tick, sim::Tick deliver_tick) override;

    // ---- results ----
    bool clean() const { return _total == 0; }
    /** Total violations detected (including ones beyond the cap). */
    std::uint64_t totalViolations() const { return _total; }
    /** Retained structured reports (capped at MaxRetained). */
    const std::vector<CausalityViolation> &violations() const
    {
        return _violations;
    }
    /** Individual checks performed (edges + deliveries examined). */
    std::uint64_t checksPerformed() const { return _checks; }
    /** Scheduling edges observed in total. */
    std::uint64_t edgesObserved() const { return _edges; }
    /** Scheduling edges that crossed domains. */
    std::uint64_t crossDomainEdges() const { return _crossEdges; }
    /** Edges with an untagged (NoDomain) endpoint — setup-time
     *  scheduling, exempt from bounds. */
    std::uint64_t untaggedEdges() const { return _untaggedEdges; }

    /** Declared bound for (from, to), or -1 when none was set. */
    sim::Tick bound(sim::Domain from, sim::Domain to) const;

    /** Multi-line report of everything retained. */
    std::string report() const;

    CheckMode mode() const { return _mode; }

    /** Retained-report cap; further violations only bump the counter. */
    static constexpr std::size_t MaxRetained = 1024;

  private:
    void record(CausalityViolation violation);

    sim::Simulator &_sim;
    CheckMode _mode;
    bool _attached = false;
    /** _bounds[from][to]; -1 (or past the row's end) = unbounded. */
    std::vector<std::vector<sim::Tick>> _bounds;
    std::vector<net::Fabric *> _fabrics;
    std::vector<CausalityViolation> _violations;
    std::uint64_t _total = 0;
    std::uint64_t _checks = 0;
    std::uint64_t _edges = 0;
    std::uint64_t _crossEdges = 0;
    std::uint64_t _untaggedEdges = 0;
};

} // namespace press::check

#endif // PRESS_CHECK_CAUSALITY_CHECKER_HPP
