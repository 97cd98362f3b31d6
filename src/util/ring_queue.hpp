/**
 * @file
 * RingQueue: a vector-backed FIFO that never shrinks.
 *
 * std::deque allocates and frees its block map as a queue oscillates
 * across block boundaries, which puts the allocator back on the
 * simulation hot path (resource job queues, credit-gate backlogs, TCP
 * pending sends, completion queues all push/pop per message). RingQueue
 * keeps one power-of-two buffer that grows on demand and is reused for
 * the rest of the run: steady state performs zero allocations.
 *
 * The first buffer holds @p FirstSlots entries (a power of two). Queues
 * that almost always hold one entry, and exist by the hundred thousand,
 * start at one slot.
 */

#ifndef PRESS_UTIL_RING_QUEUE_HPP
#define PRESS_UTIL_RING_QUEUE_HPP

#include <cstddef>
#include <utility>
#include <vector>

namespace press::util {

/** A FIFO over a circular buffer; grows, never shrinks. */
template <typename T, std::size_t FirstSlots = 8>
class RingQueue
{
    static_assert(FirstSlots > 0 && (FirstSlots & (FirstSlots - 1)) == 0,
                  "the first buffer must be a power of two");

  public:
    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }

    void
    push_back(T value) // NOLINT: STL-style naming, drop-in for deque
    {
        if (_count == _buf.size())
            grow();
        _buf[(_head + _count) & (_buf.size() - 1)] = std::move(value);
        ++_count;
    }

    T &
    front()
    {
        return _buf[_head];
    }

    /** The newest element; the queue must not be empty. */
    T &
    back()
    {
        return _buf[(_head + _count - 1) & (_buf.size() - 1)];
    }

    void
    pop_front() // NOLINT: STL-style naming, drop-in for deque
    {
        _buf[_head] = T{};
        _head = (_head + 1) & (_buf.size() - 1);
        --_count;
    }

  private:
    void
    grow()
    {
        std::size_t cap = _buf.empty() ? FirstSlots : _buf.size() * 2;
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < _count; ++i)
            next[i] = std::move(_buf[(_head + i) & (_buf.size() - 1)]);
        _buf = std::move(next);
        _head = 0;
    }

    std::vector<T> _buf;
    std::size_t _head = 0;
    std::size_t _count = 0;
};

} // namespace press::util

#endif // PRESS_UTIL_RING_QUEUE_HPP
