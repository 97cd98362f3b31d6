/**
 * @file
 * RingQueue: a FIFO over one growable circular buffer that never shrinks.
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
 * start at one slot. For the same reason the queue itself is 24 bytes:
 * a raw buffer pointer plus 32-bit head, count and index mask. Slots
 * hold live objects only between push_back() and pop_front().
 */

#ifndef PRESS_UTIL_RING_QUEUE_HPP
#define PRESS_UTIL_RING_QUEUE_HPP

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>

#include "util/logging.hpp"

namespace press::util {

/** A FIFO over a circular buffer; grows, never shrinks. */
template <typename T, std::size_t FirstSlots = 8>
class RingQueue
{
    static_assert(FirstSlots > 0 && (FirstSlots & (FirstSlots - 1)) == 0,
                  "the first buffer must be a power of two");

  public:
    RingQueue() = default;
    RingQueue(const RingQueue &) = delete;
    RingQueue &operator=(const RingQueue &) = delete;

    /** Owners that live in vectors (credit gates) move once, while
     *  the vector is filled. */
    RingQueue(RingQueue &&other) noexcept
        : _buf(std::exchange(other._buf, nullptr)),
          _head(std::exchange(other._head, 0)),
          _count(std::exchange(other._count, 0)),
          _mask(std::exchange(other._mask, 0))
    {
    }
    RingQueue &operator=(RingQueue &&) = delete;

    ~RingQueue()
    {
        if (!_buf)
            return;
        while (_count > 0)
            pop_front();
        Alloc().deallocate(_buf, capacity());
    }

    bool empty() const { return _count == 0; }
    std::size_t size() const { return _count; }

    void
    push_back(T value) // NOLINT: STL-style naming, drop-in for deque
    {
        if (!_buf || _count == capacity())
            grow();
        ::new (static_cast<void *>(slot(_count))) T(std::move(value));
        ++_count;
    }

    T &
    front()
    {
        return *slot(0);
    }

    /** The newest element; the queue must not be empty. */
    T &
    back()
    {
        return *slot(_count - 1);
    }

    void
    pop_front() // NOLINT: STL-style naming, drop-in for deque
    {
        std::destroy_at(slot(0));
        _head = (_head + 1) & _mask;
        --_count;
    }

  private:
    using Alloc = std::allocator<T>;

    std::uint32_t capacity() const { return _mask + 1; }

    /** The @p i-th element from the head (live or about to be). */
    T *slot(std::uint32_t i) const { return _buf + ((_head + i) & _mask); }

    void
    grow()
    {
        std::size_t cap = _buf ? std::size_t{capacity()} * 2 : FirstSlots;
        PRESS_ASSERT(cap <= std::size_t{1} << 31,
                     "RingQueue outgrew its 32-bit indices");
        T *next = Alloc().allocate(cap);
        for (std::uint32_t i = 0; i < _count; ++i) {
            ::new (static_cast<void *>(next + i)) T(std::move(*slot(i)));
            std::destroy_at(slot(i));
        }
        if (_buf)
            Alloc().deallocate(_buf, capacity());
        _buf = next;
        _head = 0;
        _mask = static_cast<std::uint32_t>(cap - 1);
    }

    T *_buf = nullptr;
    std::uint32_t _head = 0;
    std::uint32_t _count = 0;
    std::uint32_t _mask = 0; ///< capacity - 1 once _buf exists
};

static_assert(sizeof(RingQueue<int>) == 24,
              "RingQueue is a pointer plus three 32-bit indices");

} // namespace press::util

#endif // PRESS_UTIL_RING_QUEUE_HPP
