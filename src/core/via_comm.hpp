/**
 * @file
 * VIA backend of the intra-cluster comm layer: PRESS versions V0-V5.
 *
 * Table 3 of the paper, reproduced here, is the specification this class
 * implements (reg = regular two-sided message, rmw = remote memory
 * write, 0-cp = zero-copy):
 *
 *   Message   V0    V1    V2    V3    V4          V5
 *   Flow      reg   rmw   rmw   rmw   rmw         rmw
 *   Forward   reg   reg   rmw   rmw   rmw         rmw
 *   Caching   reg   reg   rmw   rmw   rmw         rmw
 *   File      reg   reg   reg   rmw   rmw+0cp RX  rmw+0cp TX and RX
 *
 * The table lives in _pathOf, one path per Body type. Traffic the paper
 * does not have follows three rules. Membership rides the caching row.
 * Gossip digests are variable-size, so they stay regular. The receive
 * thread is armed whenever a body this configuration sends is regular.
 *
 * A path only decides what Table 3 varies: the credit window, the CPU
 * cost and the one or two descriptors. Every send then goes through
 * launch(), and every arrival but a credit word through consume().
 * Endpoints are built and linked by buildCommMesh() (core/comm.hpp).
 *
 * Mechanisms, mirroring Section 3.4:
 *  - Regular messages flow through connected VIs with pre-posted receive
 *    buffers; a receive thread blocks on a completion queue, wakes on
 *    arrival (context-switch cost), copies a digest to the structure
 *    shared with the main thread, and reposts the buffer. Credits (one
 *    per buffer) return in batched Flow messages. The window is one
 *    counted post per VI (via::VirtualInterface::postRecvs), so a
 *    buffer's descriptor exists only from arrival to completion.
 *  - RMW control messages land in per-sender circular buffers (forward
 *    and caching rings); the main thread polls sequence numbers at the
 *    end of its loop. Ring slots are flow-controlled; credits return as
 *    single-word remote writes that may be overwritten freely.
 *  - RMW file transfers take *two* messages (data into the large ring,
 *    then metadata into the small ring) — the very property that makes
 *    V3 barely faster than V2 in the paper.
 *  - V4 replies to the client straight out of the large ring, so the
 *    receive-side copy disappears but the ring slot stays busy until the
 *    reply is on the wire (fileBufferDone()).
 *  - V5 additionally registers all cache pages with VIA, eliminating the
 *    send-side copy at the price of registration work on cache inserts.
 */

#ifndef PRESS_CORE_VIA_COMM_HPP
#define PRESS_CORE_VIA_COMM_HPP

#include <array>
#include <memory>
#include <vector>

#include "core/calibration.hpp"
#include "core/comm.hpp"
#include "core/config.hpp"
#include "core/credit_gate.hpp"
#include "core/wire.hpp"
#include "sim/resource.hpp"
#include "via/via_nic.hpp"

namespace press::check {
class ViaChecker;
}

namespace press::core {

/** One node's VIA intra-cluster endpoint. */
class ViaComm : public ClusterComm
{
  public:
    /**
     * @param sim      simulator
     * @param node     this node's id (== its internal-fabric port)
     * @param config   cluster configuration (version, windows, ...)
     * @param cpu      node CPU for charging comm work
     * @param fabric   the internal network (cLAN)
     * @param checker  cluster-wide invariant checker to attach to this
     *                 node's NIC, CQs and credit gates (null: this node
     *                 is not checked).
     */
    ViaComm(sim::Simulator &sim, int node, const PressConfig &config,
            sim::FifoResource &cpu, net::Fabric &fabric,
            check::ViaChecker *checker = nullptr);

    ~ViaComm() override;

    /** Create VIs, connect the mesh, and exchange ring addresses. Call
     *  once after constructing every endpoint; each must be a ViaComm. */
    static void linkMesh(std::vector<std::unique_ptr<ClusterComm>> &comms);

    /** Also counts credit-gate stalls (comm.stalls, CommStall). */
    void setTracer(obs::Tracer *tracer, int node) override;

    void fileBufferDone(int from) override;

    // Fault transitions (see ClusterComm): VI teardown/revival plus
    // flow-control window resets.
    void peerDown(int peer) override;
    void peerUp(int peer) override;
    void selfDown() override;
    void selfUp() override;

    sim::Tick cacheInsertCost(std::uint64_t bytes) const override;
    sim::Tick cacheEvictCost(std::uint64_t bytes) const override;

    /**
     * Main-loop polling overhead per request when RMW rings are active
     * (one sequence-number probe per peer); grows with the cluster size,
     * as Section 2.2 warns.
     */
    sim::Tick perRequestOverhead() const override;

    const via::ViaNic &nic() const { return *_nic; }

  protected:
    /** Carries @p w along the path Table 3 assigns its body type. */
    void post(int dst, WireMsg &&w, std::uint64_t bytes) override;

  private:
    struct Peer;

    /** The four ways a message can travel (Table 3's cells). */
    enum class Path : std::uint8_t {
        Regular, ///< two-sided send into a pre-posted receive descriptor
        RmwWord, ///< one overwritable remote word (credits, RMW load)
        RmwRing, ///< remote write into a forward/caching ring slot
        RmwFile, ///< data + metadata writes into the file rings
    };

    /** True when body type @p B travels on @p path here. */
    template <typename B>
    bool
    onPath(Path path) const
    {
        return _pathOf[BodyIndex<B>] == path;
    }

    /** The one or two descriptors of a post, from the peer's staging
     *  buffer. Address 0 is no remote memory (registered bases start a
     *  slot up): no `msgAt` is a two-sided send, no `dataAt` no data
     *  write. */
    struct Descs {
        via::Address dataAt = 0;
        std::uint64_t dataBytes = 0;
        via::Address msgAt = 0;
        std::uint64_t msgBytes = 0;
    };

    /** A regular two-sided message; every kind but Flow takes a
     *  descriptor credit. */
    void postRegular(Peer &peer, WireMsg &&w, std::uint64_t bytes);

    /** A control message written into the peer's forward ring
     *  (Forward) or caching ring (Caching, Membership). */
    void postRing(Peer &peer, WireMsg &&w, std::uint64_t bytes);

    /** A single overwritable word (flow credits / load). */
    void postWord(Peer &peer, WireMsg &&w, std::uint64_t bytes);

    /** The two-message RMW file transfer. */
    void postFile(Peer &peer, WireMsg &&w);

    /** The post step every path ends in: take a credit on @p channel
     *  (NumChannels: ungated), charge @p cpu_cost, reap the send CQ and
     *  post @p descs, or drop @p w if the peer went down meanwhile. */
    void launch(Peer &peer, FlowChannel channel, sim::Tick cpu_cost,
                Descs descs, WireMsg &&w);

    /** Receive-thread drain loop for regular messages. */
    void armRecvThread();
    void drainRecvCq();

    /** Reap completed send descriptors (bookkeeping only). */
    void drainSendCq();

    /** Process a regular-message completion. */
    void processRegular(via::DescriptorPtr desc, via::VirtualInterface *vi);

    /** The metadata write of an RMW file transfer landed. */
    void fileArrived(Peer &peer, const net::Payload &payload);

    /** The consume step every arrival but a credit word ends in: charge
     *  @p cpu_cost, release a flow message's credits, deliver, and give
     *  back what the message held on @p channel (NumChannels: nothing).
     *  @p trace_poll traces a ring write as the poll consumes it. */
    void consume(Peer &peer, sim::Tick cpu_cost,
                 const net::Payload &payload, FlowChannel channel,
                 bool trace_poll);

    /** Credits for @p peer's window arrived (word or message). */
    void creditArrived(Peer &peer, const FlowMsg &flow);

    /** Discard queued sends toward @p peer and restore full windows
     *  (connection teardown / re-establishment). */
    void resetPeerFlow(Peer &peer);

    /** Send @p credits of @p channel back to @p peer as a FlowMsg (none
     *  when 0: the returner's batch is still filling). */
    void returnCredits(const Peer &peer, FlowChannel channel, int credits);

    /** Post the receive buffers kept posted toward @p peer, as one
     *  counted post (at link time and on every reconnect). */
    void repostRecvs(Peer &peer);

    /** Take this end of the connection to @p p down / back up; an
     *  unlinked (this node's own) or already-down (up) peer is left
     *  alone. */
    void breakPeer(Peer &p);
    void revivePeer(Peer &p);

    sim::Tick copyCost(std::uint64_t bytes) const;

    PressConfig _config;
    const Calibration &_cal;
    sim::FifoResource &_cpu;
    std::unique_ptr<via::ViaNic> _nic;
    std::unique_ptr<via::CompletionQueue> _recvCq;
    std::unique_ptr<via::CompletionQueue> _sendCq;
    /** Indexed by node id; reserved once, so the write hooks' Peer
     *  pointers stay valid. */
    std::vector<Peer> _peers;
    /** Path per Body alternative (BodyIndex), fixed at construction
     *  from the version and the dissemination config. */
    std::array<Path, std::variant_size_v<Body>> _pathOf;
    bool _recvThreadNeeded = false;
    obs::Counter *_stalls = nullptr; ///< comm.stalls; null untraced
};

} // namespace press::core

#endif // PRESS_CORE_VIA_COMM_HPP
