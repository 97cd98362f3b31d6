#include "simulator.hpp"

#include "util/logging.hpp"

namespace press::sim {

void
Simulator::push(Tick when, EventFn fn, Domain domain)
{
    if (_observer)
        _observer->onSchedule(_now, when, _currentDomain, domain);
    _queue.push(when, std::move(fn), domain);
}

void
Simulator::schedule(Tick delay, EventFn fn)
{
    PRESS_ASSERT(delay >= 0, "negative event delay ", delay);
    push(now() + delay, std::move(fn), currentDomain());
}

void
Simulator::scheduleAt(Tick when, EventFn fn)
{
    PRESS_ASSERT(when >= now(), "event scheduled in the past: ", when,
                 " < ", now());
    push(when, std::move(fn), currentDomain());
}

void
Simulator::scheduleIn(Domain domain, Tick delay, EventFn fn)
{
    PRESS_ASSERT(delay >= 0, "negative event delay ", delay);
    push(now() + delay, std::move(fn), domain);
}

void
Simulator::setTieBreak(TieBreak policy, std::uint64_t seed)
{
    PRESS_ASSERT(idle(), "tie-break change while events are pending");
    _queue.setTieBreak(policy, seed);
}

Tick
Simulator::run(Tick until)
{
    while (!_queue.empty()) {
        Tick when = _queue.nextTime();
        if (when > until)
            break;
        _now = when;
        _currentDomain = _queue.topDomain();
        ++_executed;
        _queue.fireNext();
    }
    // Reset the inheritance domain: anything the driver schedules after
    // the loop must not silently inherit the last fired event's domain.
    _currentDomain = NoDomain;
    if (_queue.empty())
        return _now;
    _now = until;
    return _now;
}

bool
Simulator::step()
{
    if (_queue.empty())
        return false;
    _now = _queue.nextTime();
    _currentDomain = _queue.topDomain();
    ++_executed;
    _queue.fireNext();
    _currentDomain = NoDomain;
    return true;
}

} // namespace press::sim
