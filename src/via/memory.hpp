/**
 * @file
 * VIA memory registration.
 *
 * Every buffer used for VIA data transfer must be registered: the pages
 * are pinned so the NIC can DMA without page faults. The registry models a
 * per-node abstract address space; regions are allocated at unique,
 * non-overlapping base addresses. A region may carry a write hook so the
 * owning application observes incoming remote memory writes (this is the
 * simulation analogue of the receiver polling memory the NIC wrote).
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
#include <span>
#include <vector>

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
 * Per-node registration table. Tracks total pinned bytes so callers can
 * enforce pinning budgets (the paper's version 5 registers the entire
 * file cache, which is only possible when the cache fits in pinnable
 * memory).
 *
 * Regions come in two flavours. Plain regions track only metadata —
 * transfers between them move opaque payload handles, which is what the
 * server simulation uses (no host-side byte copying). *Backed* regions
 * additionally own real storage: DMA between two backed regions copies
 * actual bytes, so applications using the VIA library directly (and the
 * library's own tests) get byte-exact data transfer.
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
     * Register @p size bytes with real zero-initialized backing
     * storage.
     */
    MemoryRegion registerBacked(std::uint64_t size, WriteHook hook = {});

    /** True when @p addr lies in a backed region. */
    bool isBacked(Address addr) const;

    /**
     * Read/write backing storage (application-side access to its own
     * registered buffers). Panics when the range is not inside a
     * backed region.
     * @{
     */
    void store(Address addr, std::span<const std::uint8_t> data);
    std::vector<std::uint8_t> fetch(Address addr,
                                    std::uint64_t length) const;
    /** @} */

    /** NIC-side: copy @p length bytes of backing between regions (used
     *  by the DMA engine when both ends are backed). No-op when either
     *  side is unbacked; free when either registry has no backed region
     *  at all. */
    static void dmaCopy(const MemoryRegistry &src, Address src_addr,
                        MemoryRegistry &dst, Address dst_addr,
                        std::uint64_t length);

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

    /** Total currently-pinned bytes. */
    std::uint64_t pinnedBytes() const { return _pinned; }

    /** Number of live regions. */
    std::size_t regions() const { return _live; }

    /** Attach an instrumentation observer (nullptr detaches). */
    void setObserver(ViaObserver *observer) { _observer = observer; }
    ViaObserver *observer() const { return _observer; }

  private:
    struct Entry {
        MemoryRegion region; ///< handle 0 once deregistered
        WriteHook hook;
        std::vector<std::uint8_t> backing; ///< empty for plain regions
    };

    MemoryRegion registerImpl(std::uint64_t size, WriteHook hook,
                              bool backed);
    const Entry *entryFor(Address addr, std::uint64_t length) const;
    Entry *entryFor(Address addr, std::uint64_t length);

    /** Slot k - 1 holds the region with handle k, cleared once it is
     *  deregistered. Entries never move, so a write hook that registers
     *  memory never moves the hook that is running. */
    util::ChunkedVector<Entry> _slots;
    std::size_t _live = 0;   ///< slots still registered
    std::size_t _backed = 0; ///< live slots with backing storage
    std::uint64_t _pinned = 0;
    ViaObserver *_observer = nullptr;
};

} // namespace press::via

#endif // PRESS_VIA_MEMORY_HPP
