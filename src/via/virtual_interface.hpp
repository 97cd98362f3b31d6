/**
 * @file
 * Virtual Interfaces: VIA's connection end-points.
 *
 * A VI is the VIA analogue of a connected socket: a send queue and a
 * receive queue of descriptors, processed asynchronously by the NIC.
 * Pairs of VIs are connected point-to-point with a negotiated reliability
 * level. Completions go either to per-VI done queues or to shared
 * Completion Queues.
 *
 * The receive queue is run-length encoded. An explicit postRecv() is one
 * entry holding its descriptor; postRecvs() posts n identical buffers as
 * one counted entry, and the descriptor for one of them is built only
 * when a message arrives to fill it. A VI that keeps a window of
 * receives posted therefore costs one queue entry, not one descriptor
 * per buffer.
 */

#ifndef PRESS_VIA_VIRTUAL_INTERFACE_HPP
#define PRESS_VIA_VIRTUAL_INTERFACE_HPP

#include <cstdint>

#include "net/fabric.hpp"
#include "util/ring_queue.hpp"
#include "via/completion_queue.hpp"
#include "via/descriptor.hpp"
#include "via/types.hpp"

namespace press::via {

class ViaNic;

/** A VIA connection end-point. */
class VirtualInterface
{
  public:
    VirtualInterface(const VirtualInterface &) = delete;
    VirtualInterface &operator=(const VirtualInterface &) = delete;

    /** Work-queue depth limit, as real VIA providers advertise
     *  (cLAN default was 1024 entries per queue). */
    static constexpr std::size_t MaxQueueDepth = 1024;

    /**
     * Post a descriptor to the send queue. The NIC processes send-queue
     * descriptors asynchronously and in order. The VI must be connected.
     *
     * For Opcode::RdmaWrite the remote address must fall inside a region
     * the *peer* node registered; otherwise the descriptor completes with
     * ErrorNotRegistered (reliable VIs) or the write is dropped
     * (unreliable VIs).
     *
     * @return false (descriptor not queued) when the send queue is at
     *         MaxQueueDepth — the caller must reap completions first.
     */
    bool postSend(DescriptorPtr desc);

    /**
     * Pre-post a receive buffer. Buffers are consumed FIFO by arriving
     * regular sends; an arrival fills and completes this descriptor.
     * @return false when the receive queue is at MaxQueueDepth.
     */
    bool postRecv(DescriptorPtr desc);

    /**
     * Pre-post @p n receive buffers of @p capacity bytes at @p local, as
     * one counted entry (merged into the newest entry when that has the
     * same shape). Each buffer is consumed, and completes, on its own,
     * exactly as n postRecv(makeRecv(local, capacity)) calls would; its
     * descriptor is made when a message lands in it.
     * @return false (nothing posted) when n more buffers would exceed
     *         MaxQueueDepth.
     */
    bool postRecvs(Address local, std::uint64_t capacity, std::size_t n);

    /**
     * Reap the oldest completed send descriptor, when no send CQ is
     * attached. Returns nullptr when nothing has completed.
     */
    DescriptorPtr pollSend();

    /** Reap the oldest completed receive descriptor (no recv CQ case). */
    DescriptorPtr pollRecv();

    /** Receive buffers currently posted and unconsumed (counted posts
     *  count every buffer). */
    std::size_t recvPosted() const { return _recvPosted; }

    /** Send descriptors handed to the NIC and not yet completed. */
    std::size_t sendOutstanding() const { return _sendOutstanding; }

    bool connected() const { return _peer != nullptr && !_broken; }
    bool broken() const { return _broken; }

    Reliability reliability() const { return _reliability; }
    VirtualInterface *peer() const { return _peer; }
    net::NodeId node() const { return _node; }
    ViaNic &nic() const { return _nic; }
    int id() const { return _id; }

    /**
     * Tear down this end only (peer crash semantics): the connection is
     * marked broken and every posted receive buffer drains with
     * ErrorFlushed. The peer end is untouched — a crashed node cannot
     * reach over and mutate survivor state; each end learns of the
     * death in its own domain. In-flight sends toward a broken end
     * complete on the sender with ErrorDisconnected (via_nic arrival
     * paths).
     */
    void
    breakLocal()
    {
        markBroken();
        flushRecvQueue();
    }

    /** Undo breakLocal() after the peer restarts. The VI pair was never
     *  unlinked, so clearing the flag restores the channel. */
    void revive() { _broken = false; }

  private:
    friend class ViaNic;

    VirtualInterface(ViaNic &nic, net::NodeId node, int id,
                     Reliability reliability, CompletionQueue *send_cq,
                     CompletionQueue *recv_cq);

    /** Deposit a completed send descriptor. */
    void completeSend(DescriptorPtr desc, Status status);

    /** Deposit a completed receive descriptor. */
    void completeRecv(DescriptorPtr desc);

    /** Consume the next posted receive buffer: its explicit descriptor,
     *  or a fresh one of a counted entry's shape; nullptr if none. */
    DescriptorPtr takeRecv();

    /** Mark the connection broken (reliable-mode errors). */
    void markBroken() { _broken = true; }

    /** Complete every posted receive buffer with ErrorFlushed. */
    void flushRecvQueue();

    ViaNic &_nic;
    net::NodeId _node;
    int _id;
    Reliability _reliability;
    bool _broken = false;
    CompletionQueue *_sendCq;
    CompletionQueue *_recvCq;
    VirtualInterface *_peer = nullptr;

    /** One receive-queue entry: an explicit descriptor (count 1), or
     *  count buffers of one shape (desc null). */
    struct RecvPost {
        DescriptorPtr desc;
        Address local = 0;
        std::uint64_t capacity = 0;
        std::size_t count = 0;
    };

    // Empty queues allocate nothing: a VI whose completions go to CQs
    // never touches its done queues. A VI kept posted by postRecvs()
    // holds one counted entry, so its receive queue starts at one slot.
    util::RingQueue<RecvPost, 1> _recvQueue; ///< posted receive buffers
    util::RingQueue<DescriptorPtr> _sendDone; ///< completed sends (no CQ)
    util::RingQueue<DescriptorPtr> _recvDone; ///< completed recvs (no CQ)
    std::size_t _recvPosted = 0; ///< buffers in _recvQueue (summed counts)
    std::size_t _sendOutstanding = 0;
};

} // namespace press::via

#endif // PRESS_VIA_VIRTUAL_INTERFACE_HPP
