/**
 * @file
 * The pending-event set of the discrete-event kernel.
 *
 * Implemented as a 4-ary implicit heap over a flat vector of 24-byte
 * entries — (tick, ordering key, slot, domain) — so a sift touches a
 * quarter of the levels of a binary heap. Callbacks live in chunked
 * slot storage recycled through a free list: chunks never move, so
 * fireNext() invokes the callback in place without a single move, and
 * steady state performs zero heap allocations per event.
 *
 * Equal-tick ordering is a policy (TieBreak). The default, Fifo, fires
 * equal-tick events in insertion order — bit-identical to every
 * previous kernel. SeededPermute deterministically permutes the firing
 * order of equal-tick events *across scheduling domains* while
 * preserving insertion order within each domain: exactly the orderings
 * a per-node parallel scheduler could produce. The tick-race detector
 * (check::TickRaceHunter) reruns scenarios under several permutation
 * seeds; any output divergence is a latent cross-node race.
 */

#ifndef PRESS_SIM_EVENT_QUEUE_HPP
#define PRESS_SIM_EVENT_QUEUE_HPP

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace press::sim {

/**
 * Callback executed when an event fires. Inline storage only: captures
 * larger than EventFn::capacity() are rejected at compile time.
 */
using EventFn = InlineFn<64>;

/**
 * A scheduling domain: one per cluster node, one for the client
 * population. NoDomain marks events with no assigned domain; they form
 * one shared domain of their own under permutation.
 */
using Domain = std::int32_t;
constexpr Domain NoDomain = -1;

/** Equal-tick tie-break policy. */
enum class TieBreak : std::uint8_t {
    Fifo,          ///< insertion order (the determinism contract)
    SeededPermute, ///< per-tick permutation of domains, FIFO within each
};

/**
 * A time-ordered queue of events. Pop order is strictly (tick, key):
 * under TieBreak::Fifo the key is the insertion sequence, making runs
 * deterministic and bit-identical to the previous implementations;
 * under TieBreak::SeededPermute the key's high bits hash (seed, tick,
 * domain), reordering equal-tick events across domains only.
 */
class EventQueue
{
  public:
    EventQueue();

    /**
     * Select the equal-tick tie-break policy. Only valid while the
     * queue is empty (existing keys are not rewritten). @p seed feeds
     * the permutation; pop order is a pure function of (policy, seed,
     * push sequence).
     */
    void setTieBreak(TieBreak policy, std::uint64_t seed = 0);

    TieBreak tieBreak() const { return _policy; }
    std::uint64_t tieBreakSeed() const { return _seed; }

    /** Insert an event at absolute time @p when, owned by @p domain. */
    void push(Tick when, EventFn fn, Domain domain = NoDomain);

    /** True when no events are pending. */
    bool empty() const { return _heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return _heap.size(); }

    /** Time of the earliest pending event; MaxTick when empty. */
    Tick nextTime() const;

    /** Domain of the event fireNext()/pop() would deliver next. */
    Domain topDomain() const;

    /** Remove and return the earliest event's callback and time. */
    std::pair<Tick, EventFn> pop();

    /**
     * Remove the earliest event and invoke its callback in place (slot
     * chunks are address-stable, so pushes from inside the callback are
     * safe). The fast path of the simulator loop: no callback move.
     */
    void fireNext();

    /** Total events ever inserted (for statistics). */
    std::uint64_t inserted() const { return _seq; }

  private:
    /**
     * 24-byte heap entry. The key's composition depends on the policy:
     * Fifo uses the insertion sequence (unique, so equal-tick entries
     * compare FIFO exactly as the packed sequence|slot word of the
     * previous layout did); SeededPermute packs hash24(seed, when,
     * domain) above the low 40 sequence bits, so equal-tick entries
     * group by domain in a per-(seed, tick) pseudo-random domain order
     * while staying FIFO within a domain. 40 bits of sequence bound a
     * queue at ~10^12 insertions, asserted in push().
     */
    struct Entry {
        Tick when;
        std::uint64_t key;
        std::uint32_t slot;
        Domain domain;
    };
    static_assert(sizeof(Entry) == 24, "heap entry should stay 24 bytes");

    static constexpr unsigned SeqBits = 40;
    static constexpr std::uint64_t SeqMask =
        (std::uint64_t{1} << SeqBits) - 1;

    /** Slot chunks: stable addresses, so callbacks never relocate. */
    static constexpr unsigned ChunkShift = 8;
    static constexpr std::uint32_t ChunkSize = 1u << ChunkShift;
    static constexpr std::uint32_t MaxSlots = 1u << 24;

    /** Strict ordering: earlier tick first, then the policy key. */
    static bool
    before(const Entry &a, const Entry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        return a.key < b.key;
    }

    EventFn &
    slotRef(std::uint32_t slot)
    {
        return _chunks[slot >> ChunkShift][slot & (ChunkSize - 1)];
    }

    std::uint64_t orderKey(Tick when, Domain domain) const;
    std::uint32_t acquireSlot(EventFn &&fn);
    Entry removeTop();
    void siftUp(std::size_t i);
    void siftDown(std::size_t i);

    std::vector<Entry> _heap; ///< 4-ary implicit heap
    std::vector<std::unique_ptr<EventFn[]>> _chunks;
    std::uint32_t _slotCount = 0;
    std::vector<std::uint32_t> _free; ///< recyclable slot indices
    std::uint64_t _seq = 0;
    TieBreak _policy = TieBreak::Fifo;
    std::uint64_t _seed = 0;
};

} // namespace press::sim

#endif // PRESS_SIM_EVENT_QUEUE_HPP
