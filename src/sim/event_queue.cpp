#include "event_queue.hpp"

#include <algorithm>

#include "util/logging.hpp"
#include "util/random.hpp"

namespace press::sim {

namespace {
constexpr std::size_t Arity = 4;
constexpr std::size_t InitialCapacity = 256;
} // namespace

EventQueue::EventQueue()
{
    _heap.reserve(InitialCapacity);
    _free.reserve(InitialCapacity);
}

void
EventQueue::setTieBreak(TieBreak policy, std::uint64_t seed)
{
    PRESS_ASSERT(_heap.empty(),
                 "tie-break policy change with events pending");
    _policy = policy;
    _seed = seed;
}

std::uint64_t
EventQueue::orderKey(Tick when, Domain domain) const
{
    if (_policy == TieBreak::Fifo)
        return _seq;
    // Equal (tick, domain) entries share the hashed high bits, so the
    // low sequence bits keep them FIFO; distinct domains land in a
    // per-(seed, tick) pseudo-random order. A 24-bit hash collision
    // between two domains merely interleaves those two domains FIFO at
    // that one tick — a missed permutation, never an invalid order.
    std::uint64_t h = util::mix64(
        _seed ^ util::mix64(static_cast<std::uint64_t>(when)) ^
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(domain)) *
         0x9e3779b97f4a7c15ULL));
    return ((h >> SeqBits) << SeqBits) | (_seq & SeqMask);
}

std::uint32_t
EventQueue::acquireSlot(EventFn &&fn)
{
    std::uint32_t slot;
    if (!_free.empty()) {
        slot = _free.back();
        _free.pop_back();
    } else {
        slot = _slotCount;
        PRESS_ASSERT(slot < MaxSlots, "too many pending events");
        if ((slot & (ChunkSize - 1)) == 0)
            _chunks.push_back(std::make_unique<EventFn[]>(ChunkSize));
        ++_slotCount;
    }
    slotRef(slot) = std::move(fn);
    return slot;
}

void
EventQueue::push(Tick when, EventFn fn, Domain domain)
{
    PRESS_ASSERT(fn, "null event callback");
    PRESS_ASSERT(_seq <= SeqMask, "event sequence space exhausted");
    std::uint32_t slot = acquireSlot(std::move(fn));
    _heap.push_back(Entry{when, orderKey(when, domain), slot, domain});
    ++_seq;
    siftUp(_heap.size() - 1);
}

Tick
EventQueue::nextTime() const
{
    return _heap.empty() ? MaxTick : _heap.front().when;
}

Domain
EventQueue::topDomain() const
{
    PRESS_ASSERT(!_heap.empty(), "topDomain on empty event queue");
    return _heap.front().domain;
}

EventQueue::Entry
EventQueue::removeTop()
{
    Entry top = _heap.front();
    _heap.front() = _heap.back();
    _heap.pop_back();
    if (!_heap.empty())
        siftDown(0);
    return top;
}

std::pair<Tick, EventFn>
EventQueue::pop()
{
    PRESS_ASSERT(!_heap.empty(), "pop from empty event queue");
    Entry top = removeTop();
    std::pair<Tick, EventFn> out{top.when, std::move(slotRef(top.slot))};
    _free.push_back(top.slot);
    return out;
}

void
EventQueue::fireNext()
{
    PRESS_ASSERT(!_heap.empty(), "fire on empty event queue");
    Entry top = removeTop();
    EventFn &fn = slotRef(top.slot);
    fn();
    // Release only after the callback ran: pushes from inside it must
    // not reuse the slot under our feet.
    fn = nullptr;
    _free.push_back(top.slot);
}

void
EventQueue::siftUp(std::size_t i)
{
    Entry e = _heap[i];
    while (i > 0) {
        std::size_t parent = (i - 1) / Arity;
        if (!before(e, _heap[parent]))
            break;
        _heap[i] = _heap[parent];
        i = parent;
    }
    _heap[i] = e;
}

void
EventQueue::siftDown(std::size_t i)
{
    Entry e = _heap[i];
    const std::size_t n = _heap.size();
    for (;;) {
        std::size_t first = i * Arity + 1;
        if (first >= n)
            break;
        std::size_t last = std::min(first + Arity, n);
        std::size_t best = first;
        for (std::size_t c = first + 1; c < last; ++c)
            if (before(_heap[c], _heap[best]))
                best = c;
        if (!before(_heap[best], e))
            break;
        _heap[i] = _heap[best];
        i = best;
    }
    _heap[i] = e;
}

} // namespace press::sim
