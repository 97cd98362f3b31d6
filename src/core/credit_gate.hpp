/**
 * @file
 * Window-based flow control for intra-cluster channels.
 *
 * VIA receive descriptors (regular messages) and circular-buffer slots
 * (remote memory writes) are finite; a sender must hold a credit per
 * in-flight message and stall otherwise. PRESS implements this with its
 * fifth message type — very short messages carrying numbers of empty
 * buffer slots (Section 2.2) — which the comm backends send when a
 * CreditReturner says credits are due and feed to CreditGate::release.
 *
 * A VIA node keeps four gates and four returners per peer, so both stay
 * small: the checker's observer lives out of line and only checked runs
 * allocate it.
 */

#ifndef PRESS_CORE_CREDIT_GATE_HPP
#define PRESS_CORE_CREDIT_GATE_HPP

#include <cstdint>
#include <functional>
#include <memory>

#include "sim/inline_fn.hpp"
#include "util/logging.hpp"
#include "util/ring_queue.hpp"

namespace press::core {

/** A counting gate: run thunks while credits last, queue the rest. */
class CreditGate
{
  public:
    /**
     * Watches every credit-count mutation: called with the new credit
     * count and the window right after each change. check::ViaChecker
     * installs one to enforce 0 <= credits <= window; when an observer is
     * attached the gate's own over-release assert is delegated to it.
     */
    using Observer = std::function<void(int credits, int window)>;

    /**
     * Gated send thunk. Wider than sim::EventFn because the comm
     * backends capture a full post context (peer, ring addresses,
     * sizes, payload handle); still inline-only, so no allocation per
     * gated send.
     */
    using Thunk = sim::InlineFn<96>;

    explicit CreditGate(int window) : _credits(window), _window(window)
    {
        PRESS_ASSERT(window > 0, "flow-control window must be positive");
    }

    /**
     * Run @p thunk now if a credit is free (consuming it), else queue it.
     * @return true when it ran immediately; false is a stall, which the
     *         caller traces.
     */
    bool
    acquire(Thunk thunk)
    {
        if (_credits > 0) {
            --_credits;
            observed();
            thunk();
            return true;
        }
        ++_stalls;
        _waiting.push_back(std::move(thunk));
        return false;
    }

    /** Return @p n credits, running queued thunks as they free up. */
    void
    release(int n)
    {
        _credits += n;
        if (_observer)
            observed();
        else
            PRESS_ASSERT(_credits <= _window,
                         "credit over-release: ", _credits, " > ",
                         _window);
        while (_credits > 0 && !_waiting.empty()) {
            --_credits;
            observed();
            auto thunk = std::move(_waiting.front());
            _waiting.pop_front();
            thunk();
        }
    }

    /** Attach a mutation observer (empty function detaches). */
    void
    setObserver(Observer observer)
    {
        _observer = observer
                        ? std::make_unique<Observer>(std::move(observer))
                        : nullptr;
    }

    /**
     * Connection teardown (fault path): discard every queued thunk —
     * the messages they carry are lost with the peer — and restore the
     * full window for the reconnect. Safe under an attached checker
     * observer: credits == window is always in range.
     */
    void
    reset()
    {
        while (!_waiting.empty())
            _waiting.pop_front();
        _credits = _window;
        observed();
    }

    int credits() const { return _credits; }
    int window() const { return _window; }
    std::size_t backlog() const { return _waiting.size(); }
    std::uint64_t stalls() const { return _stalls; }

  private:
    void
    observed()
    {
        if (_observer)
            (*_observer)(_credits, _window);
    }

    int _credits;
    int _window;
    util::RingQueue<Thunk> _waiting;
    std::uint64_t _stalls = 0;
    std::unique_ptr<Observer> _observer; ///< null unless checked
};

static_assert(sizeof(CreditGate) == 48,
              "CreditGate: two counts, a 24 B backlog ring, a stall count "
              "and an out-of-line observer");

/**
 * The consumer side of a window: counts consumed slots and says when
 * @p batch of them have accumulated, batching credit-return messages the
 * way PRESS does. The caller sends the credits it is handed.
 */
class CreditReturner
{
  public:
    explicit CreditReturner(int batch) : _batch(batch)
    {
        PRESS_ASSERT(batch > 0, "credit batch must be positive");
    }

    /** Note one consumed slot.
     *  @return the credits now due: a full batch, or 0. */
    [[nodiscard]] int
    consumed()
    {
        return ++_pending >= _batch ? flush() : 0;
    }

    /** @return every pending credit (0 when none), now due. */
    [[nodiscard]] int
    flush()
    {
        int n = _pending;
        _pending = 0;
        return n;
    }

    /** Connection teardown: forget pending credits without sending —
     *  the window is re-established from scratch on reconnect. */
    void reset() { _pending = 0; }

    int pending() const { return _pending; }

  private:
    int _batch;
    int _pending = 0;
};

} // namespace press::core

#endif // PRESS_CORE_CREDIT_GATE_HPP
