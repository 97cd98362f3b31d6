/**
 * @file
 * Instrumentation points of the VIA library.
 *
 * A ViaObserver sees every semantically interesting operation the library
 * performs: memory (de)registration, descriptor posts, completions, remote
 * memory writes landing at a destination registry, and completion-queue
 * deposits. The library itself enforces nothing through the observer — it
 * only reports — so an observer can implement protocol checking (see
 * check::ViaChecker, the "Valgrind for the simulated NIC"), tracing, or
 * statistics without touching the data path.
 *
 * Posts are observed *before* the library mutates any state, so a checker
 * sees exactly what the application asked for, even when the request is
 * invalid. When an observer is attached, the library routes its own
 * defensive descriptor-lifecycle asserts through it instead of aborting
 * directly, which lets a recording checker survive seeded violations.
 */

#ifndef PRESS_VIA_OBSERVER_HPP
#define PRESS_VIA_OBSERVER_HPP

#include <cstddef>
#include <cstdint>

#include "via/types.hpp"

namespace press::via {

struct Descriptor;
struct MemoryRegion;
class MemoryRegistry;
class VirtualInterface;
class CompletionQueue;

/** Interface for watching a node's VIA provider. All hooks default to
 *  no-ops; override what you need. */
class ViaObserver
{
  public:
    ViaObserver() = default;
    ViaObserver(const ViaObserver &) = delete;
    ViaObserver &operator=(const ViaObserver &) = delete;
    virtual ~ViaObserver() = default;

    /** A region was registered (pinned). */
    virtual void onRegister(const MemoryRegistry &, const MemoryRegion &) {}

    /** deregister() was called; @p known is false for unknown handles. */
    virtual void
    onDeregister(const MemoryRegistry &, MemoryHandle, bool /*known*/)
    {
    }

    /** A descriptor is being posted to a send queue (pre-mutation). */
    virtual void onPostSend(const VirtualInterface &, const Descriptor &) {}

    /** A descriptor is being posted to a receive queue (pre-mutation). */
    virtual void onPostRecv(const VirtualInterface &, const Descriptor &) {}

    /** @p n counted receive buffers of @p capacity bytes at @p local are
     *  being posted (pre-mutation). No descriptor exists for them yet. */
    virtual void
    onPostRecvs(const VirtualInterface &, Address /*local*/,
                std::uint64_t /*capacity*/, std::size_t /*n*/)
    {
    }

    /** A descriptor completed (status already final). */
    virtual void
    onCompletion(const VirtualInterface &, const Descriptor &,
                 bool /*is_recv*/)
    {
    }

    /** A remote memory write reached @p registry; @p in_region is false
     *  when the target range lies outside every registered region. */
    virtual void
    onRdmaDeliver(const MemoryRegistry &, Address, std::uint64_t /*length*/,
                  bool /*in_region*/)
    {
    }

    /** A completion was deposited into a CQ (post-push). */
    virtual void onCqPush(const CompletionQueue &) {}
};

} // namespace press::via

#endif // PRESS_VIA_OBSERVER_HPP
