/**
 * @file
 * The discrete-event simulator: clock plus event loop.
 *
 * Every simulated subsystem (NICs, CPUs, disks, the VIA engine, the PRESS
 * server) holds a reference to one Simulator and advances by scheduling
 * callbacks. The loop, run(), is single-threaded: determinism comes from
 * one time-ordered event queue.
 *
 * Scheduling domains. Each event belongs to a Domain (one per cluster
 * node, one for the client population). schedule() inherits the domain
 * of the event currently firing, so whole causal chains stay inside one
 * domain automatically; the places where causality genuinely crosses
 * domains (the network fabric's wire hop, the TCP window-update path)
 * re-tag explicitly with scheduleIn(). Domains cost one integer copy per event
 * and power two consumers: the tick-race detector (EventQueue's
 * SeededPermute tie-break reorders equal-tick events across domains
 * only) and the causality/lookahead checker (a ScheduleObserver sees
 * every cross-domain edge and verifies its delay against the per-link
 * lookahead bound).
 */

#ifndef PRESS_SIM_SIMULATOR_HPP
#define PRESS_SIM_SIMULATOR_HPP

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace press::sim {

/**
 * Observer of every scheduling edge: an event executing at `now` in
 * domain `from` scheduled a new event at `when` in domain `to`. The
 * causality checker (check::CausalityChecker) implements this to verify
 * cross-domain edges against lookahead bounds; with no observer
 * attached the hook is a single null-pointer test per schedule.
 */
class ScheduleObserver
{
  public:
    virtual ~ScheduleObserver() = default;

    virtual void onSchedule(Tick now, Tick when, Domain from,
                            Domain to) = 0;
};

/** Single-clock discrete-event simulator. */
class Simulator
{
  public:
    Simulator() = default;

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    /** Current simulated time. */
    Tick now() const { return _now; }

    /** Schedule @p fn to run @p delay ns from now (delay >= 0), in the
     *  domain of the currently-firing event. */
    void schedule(Tick delay, EventFn fn);

    /** Schedule @p fn at absolute time @p when (when >= now()), in the
     *  domain of the currently-firing event. */
    void scheduleAt(Tick when, EventFn fn);

    /**
     * Schedule @p fn to run @p delay ns from now in @p domain,
     * overriding inheritance. The explicit cross-domain handoff: use it
     * wherever causality really crosses node boundaries (fabric wire
     * hops), never to smuggle state changes past the lookahead bound.
     */
    void scheduleIn(Domain domain, Tick delay, EventFn fn);

    /**
     * Domain of the event currently firing (NoDomain outside the loop
     * unless setCurrentDomain() was called). New events inherit it.
     */
    Domain currentDomain() const { return _currentDomain; }

    /**
     * Set the inheritance domain for events scheduled outside the event
     * loop (initial population of the queue during setup). The loop
     * overwrites this with each fired event's domain and resets it to
     * NoDomain on exit.
     */
    void setCurrentDomain(Domain domain) { _currentDomain = domain; }

    /**
     * Select the equal-tick tie-break policy of the pending-event set
     * (see EventQueue::setTieBreak). Only valid while idle(). FIFO runs
     * are bit-identical to every previous kernel; SeededPermute is the
     * tick-race detector's diagnostic mode.
     */
    void setTieBreak(TieBreak policy, std::uint64_t seed = 0);

    TieBreak tieBreak() const { return _queue.tieBreak(); }
    std::uint64_t tieBreakSeed() const { return _queue.tieBreakSeed(); }

    /** Attach a scheduling-edge observer (null detaches). */
    void setScheduleObserver(ScheduleObserver *observer)
    {
        _observer = observer;
    }

    /**
     * Run until the event queue drains or simulated time would pass
     * @p until. Events exactly at @p until still run.
     *
     * @return the final simulated time.
     */
    Tick run(Tick until = MaxTick);

    /**
     * Process a single event if one is pending.
     * @return true when an event was processed.
     */
    bool step();

    /** Number of events executed so far. */
    std::uint64_t eventsExecuted() const { return _executed; }

    /** True when no work is pending. */
    bool idle() const { return _queue.empty(); }

  private:
    void push(Tick when, EventFn fn, Domain domain);

    EventQueue _queue;
    Tick _now = 0;
    std::uint64_t _executed = 0;
    Domain _currentDomain = NoDomain;
    ScheduleObserver *_observer = nullptr;
};

} // namespace press::sim

#endif // PRESS_SIM_SIMULATOR_HPP
