/**
 * @file
 * VIA memory registration.
 *
 * Every buffer used for VIA data transfer must be registered: the pages
 * are pinned so the NIC can DMA without page faults. The registry models a
 * per-node abstract address space; regions are allocated at unique,
 * non-overlapping base addresses and own no bytes: message contents
 * travel as payload handles (see via/types.hpp). A region may carry a
 * write hook so the owning application observes incoming remote memory
 * writes (this is the simulation analogue of the receiver polling memory
 * the NIC wrote).
 *
 * Like a real NIC's translation table, the registry is indexed by memory
 * handle: a region's base address encodes its slot, so translating an
 * address costs one index and one range check however many regions the
 * node has registered.
 */

#ifndef PRESS_VIA_MEMORY_HPP
#define PRESS_VIA_MEMORY_HPP

#include <cstdint>
#include <functional>
#include <optional>

#include "util/chunked_vector.hpp"
#include "via/types.hpp"

namespace press::via {

class ViaObserver;

/**
 * Callback invoked when a remote memory write lands inside a region.
 *
 * @param offset     byte offset of the write within the region
 * @param length     bytes written
 * @param payload    simulated contents
 * @param immediate  immediate data carried by the descriptor
 */
using WriteHook = std::function<void(std::uint64_t offset,
                                     std::uint64_t length,
                                     const Payload &payload,
                                     std::uint32_t immediate)>;

/** A registered (pinned) memory region. */
struct MemoryRegion {
    MemoryHandle handle = 0;
    Address base = 0;
    std::uint64_t size = 0;
};

/**
 * Per-node registration table. Regions hold no bytes: a transfer into
 * one moves an opaque payload handle, and the region's write hook (if
 * any) sees where it landed. Pinning is charged as host CPU time by the
 * caller (ViaNic::registrationCost); the registry keeps no byte count.
 */
class MemoryRegistry
{
  public:
    /** Base-address bits below a region's slot: the largest region
     *  registerable is 2^SlotShift - 1 bytes. */
    static constexpr unsigned SlotShift = 40;

    /**
     * Register @p size bytes; returns the region. The base address is
     * chosen by the registry: region k (handle k, counting from 1) sits
     * at k << SlotShift. Bases and handles are never reused, so a stale
     * address can never reach a later registration.
     */
    MemoryRegion registerMemory(std::uint64_t size, WriteHook hook = {});

    /**
     * Deregister a region.
     * @return false when the handle is unknown.
     */
    bool deregister(MemoryHandle handle);

    /** Find the region containing [addr, addr+length). */
    std::optional<MemoryRegion> find(Address addr,
                                     std::uint64_t length) const;

    /** Deliver a remote write to @p addr (called by the NIC model). */
    bool deliverWrite(Address addr, std::uint64_t length,
                      const Payload &payload, std::uint32_t immediate);

    /** Number of live regions. */
    std::size_t regions() const { return _live; }

    /** Attach an instrumentation observer (nullptr detaches). */
    void setObserver(ViaObserver *observer) { _observer = observer; }
    ViaObserver *observer() const { return _observer; }

  private:
    /** Slot k - 1 holds handle k; its base is k << SlotShift. */
    struct Entry {
        std::uint64_t size; ///< 0 once deregistered
        WriteHook hook;
    };
    // Two per peer, 130 560 at 256 nodes: hold only what a transfer reads.
    static_assert(sizeof(Entry) <= 40, "registry entry grew past 40 B");

    const Entry *entryFor(Address addr, std::uint64_t length) const;

    /** Entries never move, so a write hook that registers memory never
     *  moves the hook that is running. */
    util::ChunkedVector<Entry> _slots;
    std::size_t _live = 0; ///< slots still registered
    ViaObserver *_observer = nullptr;
};

} // namespace press::via

#endif // PRESS_VIA_MEMORY_HPP
