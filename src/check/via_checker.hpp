/**
 * @file
 * ViaChecker: protocol-invariant checking for the simulated VIA layer —
 * "Valgrind for the simulated NIC".
 *
 * The paper's whole argument rests on user-level communication being safe
 * without the kernel: every DMA must land in registered (pinned) memory,
 * descriptors follow a strict post -> complete lifecycle, and flow control
 * must never let a sender outrun the receiver's posted resources. Nothing
 * in the OS enforces any of this — the application is the protection
 * boundary — so the checker re-creates the discipline a kernel would have
 * provided, as a validation layer over via::ViaObserver hooks.
 *
 * Invariants checked on every operation when attached:
 *  - DMA source buffers (sends, remote writes) lie fully inside a region
 *    registered on the local node; receive buffers likewise.
 *  - No operation touches memory whose region has been deregistered
 *    (use-after-deregister is distinguished from never-registered).
 *  - A descriptor is never reposted while still in flight / Pending.
 *    Counted receive posts (VirtualInterface::postRecvs) hold no
 *    descriptor until a message arrives, so only the two checks above
 *    and the dead-VI check below apply to them.
 *  - A CompletionQueue never holds more entries than its advertised
 *    capacity (capacity 0 = unbounded, never flagged).
 *  - Remote memory writes stay fully inside one region the *peer*
 *    registered; running off the end of the target region is flagged as
 *    out-of-bounds rather than unregistered.
 *  - Flow-control credit counts stay within [0, window] (via hooks the
 *    comm layer installs on its CreditGates).
 *  - No descriptor is posted on a VI whose connection has been torn
 *    down (peer crash). Completions *draining* with an error status
 *    after the teardown are the legitimate VIA disconnect vocabulary
 *    and are never flagged; only new posts are.
 *
 * Violations produce a structured report (kind, operation, node, memory
 * handle, address range, simulated tick). CheckMode::Abort panics on the
 * first violation — the mode production tests run under, so a broken
 * refactor fails loudly. CheckMode::Record accumulates reports so tests
 * can seed violations and assert they are detected.
 */

#ifndef PRESS_CHECK_VIA_CHECKER_HPP
#define PRESS_CHECK_VIA_CHECKER_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "via/memory.hpp"
#include "via/observer.hpp"

namespace press::via {
class ViaNic;
}

namespace press::check {

/** What the checker does when an invariant fails. */
enum class CheckMode {
    Record, ///< accumulate structured reports, let the simulation continue
    Abort,  ///< panic with the structured report on the first violation
};

/** One detected protocol violation. */
struct Violation {
    enum class Kind {
        UnregisteredDma,     ///< DMA touches memory never registered
        UseAfterDeregister,  ///< region existed but was deregistered
        ReuseBeforeComplete, ///< descriptor reposted while still in flight
        CqOverflow,          ///< CQ exceeded its advertised capacity
        NegativeCredits,     ///< flow-control credits went below zero
        CreditOverRelease,   ///< credits exceeded the window
        RmwOutOfBounds,      ///< remote write runs off the target region
        PostToDeadVi,        ///< descriptor posted on a broken connection
    };

    Kind kind;
    std::string op;              ///< operation that tripped the check
    int node = -1;               ///< node id (-1 when unknown)
    via::MemoryHandle handle = 0;///< offending region handle (0 = none)
    via::Address lo = 0;         ///< offending range [lo, hi)
    via::Address hi = 0;
    sim::Tick tick = 0;          ///< simulated time of the violation
    std::string detail;          ///< human-readable specifics

    /** One-line rendering for logs and panic messages. */
    std::string format() const;
};

const char *violationKindName(Violation::Kind kind);

/**
 * The invariant checker. One instance may watch any number of NICs (a
 * whole cluster), which is how PressCluster wires it: cross-node checks
 * (remote write targets) navigate the connected-VI graph directly.
 */
class ViaChecker : public via::ViaObserver
{
  public:
    explicit ViaChecker(sim::Simulator &sim,
                        CheckMode mode = CheckMode::Abort);

    /** Watch @p nic (and its memory registry). */
    void attachNic(via::ViaNic &nic);

    /** Watch a completion queue (capacity checks). @p node labels the
     *  queue's owner in reports. */
    void attachCq(via::CompletionQueue &cq, int node = -1);

    /**
     * Build an observer for a core::CreditGate (or any credit counter):
     * flags counts outside [0, window]. @p channel names the gate in
     * reports, e.g. "file->3".
     */
    std::function<void(int, int)> creditHook(int node, std::string channel);

    // ---- results ----
    bool clean() const { return _total == 0; }
    /** Total violations detected (including ones beyond the report cap). */
    std::uint64_t totalViolations() const { return _total; }
    /** Retained structured reports (capped at MaxRetained). */
    const std::vector<Violation> &violations() const { return _violations; }
    /** Violations of one kind among the retained reports. */
    std::size_t count(Violation::Kind kind) const;
    /** Individual invariant checks performed. */
    std::uint64_t checksPerformed() const { return _checks; }
    /** Multi-line report of everything retained. */
    std::string report() const;
    /** Drop accumulated reports and counters (not attachments). */
    void clear();

    CheckMode mode() const { return _mode; }

    /** Retained-report cap; further violations only bump the counter. */
    static constexpr std::size_t MaxRetained = 1024;

    // ---- via::ViaObserver interface ----
    void onRegister(const via::MemoryRegistry &registry,
                    const via::MemoryRegion &region) override;
    void onDeregister(const via::MemoryRegistry &registry,
                      via::MemoryHandle handle, bool known) override;
    void onPostSend(const via::VirtualInterface &vi,
                    const via::Descriptor &desc) override;
    void onPostRecv(const via::VirtualInterface &vi,
                    const via::Descriptor &desc) override;
    void onPostRecvs(const via::VirtualInterface &vi, via::Address local,
                     std::uint64_t capacity, std::size_t n) override;
    void onCompletion(const via::VirtualInterface &vi,
                      const via::Descriptor &desc, bool is_recv) override;
    void onRdmaDeliver(const via::MemoryRegistry &registry,
                       via::Address addr, std::uint64_t length,
                       bool in_region) override;
    void onCqPush(const via::CompletionQueue &cq) override;

  private:
    /** Registration history of one watched node. */
    struct NodeState {
        int node = -1;
        /** Live regions by handle (mirror of the registry). */
        std::map<via::MemoryHandle, via::MemoryRegion> live;
        /** Deregistered regions by base; bases are never reused, so a
         *  hit here is a definite use-after-deregister. */
        std::map<via::Address, via::MemoryRegion> dead;
    };

    NodeState &stateFor(const via::MemoryRegistry &registry);
    int nodeOf(const via::MemoryRegistry &registry) const;

    /** Classify why [addr, addr+length) is not fully inside a live
     *  region of @p registry and record the violation. @p rmw selects
     *  the out-of-bounds kind when the range starts inside a region. */
    void flagBadRange(const via::MemoryRegistry &registry,
                      via::Address addr, std::uint64_t length,
                      const std::string &op, bool rmw);

    /** Flag any post on a VI whose connection has been torn down. */
    void checkLiveVi(const via::VirtualInterface &vi, const std::string &op);

    /** Validate a local DMA buffer (zero-length needs no registration). */
    void checkLocalBuffer(const via::VirtualInterface &vi,
                          via::Address addr, std::uint64_t length,
                          const std::string &op);

    /** Validate lifecycle on a post; returns false on reuse. */
    void checkLifecycle(const via::VirtualInterface &vi,
                        const via::Descriptor &desc, const std::string &op);

    void record(Violation violation);

    sim::Simulator &_sim;
    CheckMode _mode;
    std::unordered_map<const via::MemoryRegistry *, NodeState> _nodes;
    std::unordered_map<const via::CompletionQueue *, int> _cqNodes;
    /** Descriptors currently posted and not yet completed. */
    std::unordered_map<const via::Descriptor *,
                       const via::VirtualInterface *>
        _inflight;
    std::vector<Violation> _violations;
    std::uint64_t _total = 0;
    std::uint64_t _checks = 0;
};

} // namespace press::check

#endif // PRESS_CHECK_VIA_CHECKER_HPP
