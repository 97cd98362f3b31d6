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
 * Alongside the pass/fail verdict it measures the *actual* minimum
 * delay per (from, to) domain pair — the calibrated lookahead table a
 * parallel scheduler would be built on — printable via
 * writeLookaheadTable(), deterministically ordered and byte-identical
 * across reruns.
 *
 * CheckMode::Abort panics on the first violation (the mode checked
 * simulations run under); CheckMode::Record accumulates structured
 * reports so tests can inject violations and assert detection.
 */

#ifndef PRESS_CHECK_CAUSALITY_CHECKER_HPP
#define PRESS_CHECK_CAUSALITY_CHECKER_HPP

#include <cstdint>
#include <iosfwd>
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
 * fabrics; declare per-domain-pair bounds; run; read the verdict and
 * the measured lookahead table.
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
     * Size the domain universe to @p count domains (0..count-1) and
     * (re)label them "d<i>". Edges naming larger domains grow the
     * matrix on demand; declaring up front keeps labels and table
     * ordering stable.
     */
    void declareDomains(int count);

    /** Label @p domain in reports and the lookahead table. */
    void setDomainLabel(sim::Domain domain, std::string label);

    /**
     * Require every scheduling edge from @p from to @p to (a directed
     * pair of distinct domains) to carry a delay of at least @p bound
     * ns. Pairs without a bound are measured but never flagged.
     */
    void setBound(sim::Domain from, sim::Domain to, sim::Tick bound);

    /** setBound() over every ordered pair of distinct declared
     *  domains. */
    void setAllBounds(sim::Tick bound);

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

    /**
     * Minimum delay observed on (from, to) scheduling edges, or -1 when
     * the pair never occurred.
     */
    sim::Tick minDelay(sim::Domain from, sim::Domain to) const;

    /** Declared bound for (from, to), or -1 when none was set. */
    sim::Tick bound(sim::Domain from, sim::Domain to) const;

    /**
     * The measured lookahead table: one row per cross-domain pair that
     * carried at least one edge — from, to, edge count, minimum delay,
     * declared bound, verdict — ordered by (from, to). A pure function
     * of the simulation, so reruns produce byte-identical bytes.
     */
    void writeLookaheadTable(std::ostream &os) const;

    /** Multi-line report of everything retained. */
    std::string report() const;

    /** Drop accumulated measurements and reports (not attachments,
     *  labels, or bounds). */
    void clear();

    CheckMode mode() const { return _mode; }

    /** Retained-report cap; further violations only bump the counter. */
    static constexpr std::size_t MaxRetained = 1024;

  private:
    /** Per ordered (from, to) domain pair. */
    struct EdgeStats {
        std::uint64_t count = 0;
        sim::Tick minDelay = -1; ///< -1 = no edge seen yet
        sim::Tick bound = -1;    ///< -1 = unbounded
    };

    /** Per watched fabric, in attach order. */
    struct FabricStats {
        net::Fabric *fabric = nullptr;
        std::uint64_t deliveries = 0;
        sim::Tick minLatency = -1;
    };

    /** Grow the matrix to cover @p domain; returns false for
     *  NoDomain. */
    bool cover(sim::Domain domain);
    EdgeStats &cell(sim::Domain from, sim::Domain to);
    const EdgeStats *cellIfAny(sim::Domain from, sim::Domain to) const;
    std::string domainLabel(sim::Domain domain) const;
    void record(CausalityViolation violation);

    sim::Simulator &_sim;
    CheckMode _mode;
    bool _attached = false;
    int _domains = 0;
    std::vector<EdgeStats> _matrix; ///< _domains x _domains, row-major
    std::vector<std::string> _labels;
    std::vector<FabricStats> _fabrics;
    std::vector<CausalityViolation> _violations;
    std::uint64_t _total = 0;
    std::uint64_t _checks = 0;
    std::uint64_t _edges = 0;
    std::uint64_t _crossEdges = 0;
    std::uint64_t _untaggedEdges = 0;
};

} // namespace press::check

#endif // PRESS_CHECK_CAUSALITY_CHECKER_HPP
