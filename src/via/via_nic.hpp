/**
 * @file
 * The emulated VIA network interface controller.
 *
 * One ViaNic sits on each node, attached to one fabric port. It owns the
 * node's registration table and its VIs, and implements descriptor
 * processing: DMA from registered memory onto the wire, receive-descriptor
 * matching, remote memory writes into registered remote regions, and
 * completion deposition per the connection's reliability level.
 *
 * Division of labour with the host-CPU model: the ViaNic consumes *NIC*
 * time (modelled inside net::Fabric's port engines); the few microseconds
 * of *host* CPU a post/poll costs are published as constants (PostCosts)
 * so the server layer can charge them to its CPU model. This mirrors
 * reality: user-level communication is cheap on the host precisely because
 * everything else happens on the NIC.
 */

#ifndef PRESS_VIA_VIA_NIC_HPP
#define PRESS_VIA_VIA_NIC_HPP

#include <cstdint>

#include "net/fabric.hpp"
#include "sim/simulator.hpp"
#include "util/chunked_vector.hpp"
#include "via/memory.hpp"
#include "via/virtual_interface.hpp"

namespace press::via {

class ViaObserver;

/**
 * Host-CPU costs of VIA verbs, published for the layer that owns the CPU
 * model. Calibrated so a 4-byte VIA/cLAN ping-pong costs ~9 us one-way as
 * measured in the paper (send post ~1.5 us + NIC 3 us + wire 1 us +
 * NIC 3 us + completion reap ~0.5 us).
 */
struct PostCosts {
    sim::Tick sendPost;  ///< build descriptor + doorbell
    sim::Tick recvPost;  ///< replenish a receive descriptor
    sim::Tick cqPoll;    ///< poll a CQ or memory location (hit or miss)
    sim::Tick cqWakeup;  ///< context switch when a blocked thread wakes
    sim::Tick regPerPage;///< pin + translate one 4 KiB page

    static PostCosts defaults();
};

/** Traffic statistics for one ViaNic. */
struct ViaNicStats {
    std::uint64_t sendsPosted = 0;
    std::uint64_t rdmaWritesPosted = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t recvOverruns = 0;  ///< arrivals with no recv descriptor
    std::uint64_t dropsUnreliable = 0;
    std::uint64_t rdmaBadAddress = 0;
};

/** The per-node VIA provider + NIC engine. */
class ViaNic
{
  public:
    /**
     * @param sim     simulator
     * @param fabric  fabric this NIC's port lives on
     * @param node    port index on the fabric
     * @param costs   host-side verb costs to publish
     */
    ViaNic(sim::Simulator &sim, net::Fabric &fabric, net::NodeId node,
           PostCosts costs = PostCosts::defaults());

    ViaNic(const ViaNic &) = delete;
    ViaNic &operator=(const ViaNic &) = delete;

    /** Register (pin) memory; see MemoryRegistry::registerMemory. */
    MemoryRegion registerMemory(std::uint64_t size, WriteHook hook = {});

    /** Deregister a region. */
    bool deregister(MemoryHandle handle);

    /**
     * Create a VI on this NIC. CQs may be null (the VI keeps per-VI done
     * queues instead).
     */
    VirtualInterface *createVi(Reliability reliability,
                               CompletionQueue *send_cq = nullptr,
                               CompletionQueue *recv_cq = nullptr);

    /** Connect two unconnected VIs; reliability levels must match. */
    static void connect(VirtualInterface &a, VirtualInterface &b);

    /**
     * Tear a connection down. Both end-points become unusable
     * (subsequent posts complete with ErrorDisconnected) and every
     * still-posted receive descriptor on either side is completed with
     * ErrorFlushed, per the VIA disconnect semantics. Messages already
     * on the wire are discarded on arrival.
     */
    static void disconnect(VirtualInterface &a);

    /**
     * Attach an instrumentation observer (see via/observer.hpp). The
     * observer also watches this NIC's memory registry. nullptr detaches.
     */
    void setObserver(ViaObserver *observer);
    ViaObserver *observer() const { return _observer; }

    /** Host-side verb costs (for the caller's CPU model). */
    const PostCosts &costs() const { return _costs; }

    /** Host CPU time to register @p bytes of memory. */
    sim::Tick registrationCost(std::uint64_t bytes) const;

    const ViaNicStats &stats() const { return _stats; }
    MemoryRegistry &memory() { return _memory; }
    const MemoryRegistry &memory() const { return _memory; }
    net::NodeId node() const { return _node; }
    sim::Simulator &sim() { return _sim; }

    /** Bytes of wire framing added to every VIA message. */
    static constexpr std::uint64_t HeaderBytes = 32;

  private:
    friend class VirtualInterface;

    /** Process one posted send-queue descriptor (called from postSend). */
    void processSend(VirtualInterface &vi, DescriptorPtr desc);

    /** Arrival of a regular send at the destination NIC. */
    void arriveSend(VirtualInterface &dst_vi, DescriptorPtr src_desc,
                    Reliability reliability, VirtualInterface &src_vi);

    /** Arrival of a remote memory write at the destination NIC. */
    void arriveRdma(VirtualInterface &dst_vi, DescriptorPtr src_desc,
                    Reliability reliability, VirtualInterface &src_vi);

    /**
     * Deposit a send completion on the sender's VI (optionally breaking
     * the VI first). Reliable completions are decided at the receiver
     * but mutate sender state — the one reverse edge in the VIA model
     * with no wire delay under it; it runs inline, at the tick the
     * receiver decides it.
     */
    void completeOnSender(VirtualInterface &src_vi, DescriptorPtr desc,
                          Status status, bool break_vi = false);

    sim::Simulator &_sim;
    net::Fabric &_fabric;
    net::NodeId _node;
    PostCosts _costs;
    MemoryRegistry _memory;
    /** Every VI this NIC created, in id order; chunked, so the pointers
     *  createVi() hands out stay valid. */
    util::ChunkedVector<VirtualInterface> _vis;
    ViaNicStats _stats;
    ViaObserver *_observer = nullptr;
};

} // namespace press::via

#endif // PRESS_VIA_VIA_NIC_HPP
