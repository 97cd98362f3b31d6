/**
 * @file
 * The intra-cluster communication layer of PRESS.
 *
 * The server logic (press_server.hpp) is identical across all protocol
 * and version configurations; everything Section 3 varies — TCP vs. VIA,
 * remote memory writes, zero-copy, flow control — lives behind this
 * interface. Versions differ only in *where CPU time and messages go*,
 * which each backend charges to the node's CPU resource and records in
 * per-kind statistics (reproducing Tables 2 and 4).
 */

#ifndef PRESS_CORE_COMM_HPP
#define PRESS_CORE_COMM_HPP

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/messages.hpp"
#include "core/wire.hpp"
#include "obs/tracer.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace press::check {
class ViaChecker;
}
namespace press::net {
class Fabric;
}
namespace press::osnode {
class Node;
}

namespace press::core {

struct PressConfig;

/** Per-message-kind traffic counters (Table 2 / Table 4 rows). */
struct KindStats {
    std::uint64_t msgs = 0;
    std::uint64_t bytes = 0;

    double
    avgSize() const
    {
        return msgs ? static_cast<double>(bytes) /
                          static_cast<double>(msgs)
                    : 0.0;
    }
};

/** All five kinds plus totals. */
struct CommStats {
    std::array<KindStats, static_cast<int>(MsgKind::NumKinds)> byKind;
    /** Sends that found their credit window empty and queued (VIA
     *  only; the trace's comm.stalls). */
    std::uint64_t stalls = 0;

    KindStats &
    of(MsgKind k)
    {
        return byKind[static_cast<int>(k)];
    }
    const KindStats &
    of(MsgKind k) const
    {
        return byKind[static_cast<int>(k)];
    }

    KindStats total() const;
    void reset();
};

/** Upcall for messages arriving from other nodes. */
using MessageHandler = std::function<void(const Incoming &)>;

/** Supplies the node's current load to piggy-back on messages. */
using LoadProvider = std::function<int()>;

/** One node's end of the intra-cluster communication substrate. */
class ClusterComm
{
  public:
    /** @param node   this end's node id (the envelope's sender)
     *  @param sizes  wire sizes for the logical-byte accounting */
    explicit ClusterComm(int node = -1, const MessageSizes &sizes = {})
        : _node(node), _sizes(sizes)
    {
    }
    virtual ~ClusterComm() = default;

    /** Install the server's message upcall. */
    void setHandler(MessageHandler handler) { _handler = std::move(handler); }

    /** Install the piggy-back load source (may stay empty). */
    void
    setLoadProvider(LoadProvider provider)
    {
        _loadProvider = std::move(provider);
    }

    /**
     * Send @p body to node @p dst. Builds the envelope once — kind,
     * sender, piggy-backed load — sizes it with wireBytes(), and hands
     * it to the backend's post(). Which mechanism carries it (and what
     * it costs) is the backend's business.
     */
    void send(int dst, Body body);

    // ----------------------------------------------- fault transitions
    //
    // Called from this end's own scheduling domain by the server's
    // fault hooks. The base class keeps the reachability flags every
    // backend consults before putting bytes on the wire: a send to a
    // peer believed down is dropped (and counted) instead of posted,
    // which is what keeps the VIA checker's dead-VI rule clean —
    // error completions only ever come from genuinely in-flight
    // traffic racing a teardown.

    /** A peer was detected down: tear down this end's resources toward
     *  it and stop sending until peerUp(). */
    virtual void
    peerDown(int peer)
    {
        reach(peer) = 0;
    }

    /** A peer rejoined: revive this end's resources toward it. */
    virtual void
    peerUp(int peer)
    {
        reach(peer) = 1;
    }

    /** This node crashed/left: drop all traffic until selfUp(). */
    virtual void selfDown() { _selfDown = true; }

    /** This node restarted. */
    virtual void selfUp() { _selfDown = false; }

    /** Sends suppressed because the destination was believed down. */
    std::uint64_t droppedSends() const { return _droppedSends; }

    /** Receive completions that drained with an error status (torn
     *  down connections) and inbound messages dropped while down. */
    std::uint64_t rxErrors() const { return _rxErrors; }

    /**
     * The server is done using the buffer an arrived file occupied
     * (after replying to the client). Backends whose receive path keeps
     * the communication buffer alive until then (zero-copy receive)
     * release the flow-control slot here; others ignore it.
     */
    virtual void fileBufferDone(int from) { (void)from; }

    /**
     * Per-request CPU overhead the communication scheme imposes on the
     * server's main loop (e.g. polling remote-write rings); 0 for
     * interrupt-driven backends.
     */
    virtual sim::Tick perRequestOverhead() const { return 0; }

    /**
     * Extra CPU the server must spend when (de)registering cache pages
     * on insert/evict. Only version 5 registers the file cache with VIA.
     */
    virtual sim::Tick cacheInsertCost(std::uint64_t bytes) const
    {
        (void)bytes;
        return 0;
    }
    virtual sim::Tick cacheEvictCost(std::uint64_t bytes) const
    {
        (void)bytes;
        return 0;
    }

    /** Sender-side traffic stats (what Tables 2 and 4 report). */
    const CommStats &txStats() const { return _tx; }
    CommStats &txStats() { return _tx; }

    /** Attach the observability hub (null detaches); events are
     *  recorded under this end's node id. */
    void setTracer(obs::Tracer *tracer) { _tracer = tracer; }

  protected:
    /**
     * Put one enveloped message on the wire toward @p dst. @p bytes is
     * wireBytes() of its body; the backend adds whatever its transport
     * path charges on top (see piggyWord()) and records the send.
     */
    virtual void post(int dst, WireMsg &&w, std::uint64_t bytes) = 0;

    /** Wire bytes of the piggy-backed load word @p w carries (Table 2
     *  sizes include it wherever a message carries one). */
    static std::uint64_t
    piggyWord(const WireMsg &w)
    {
        return w.piggyLoad >= 0 ? 4 : 0;
    }

    /** Record an outgoing message for the Tables-2/4 accounting. */
    void
    recordSend(MsgKind kind, std::uint64_t bytes)
    {
        auto &s = _tx.of(kind);
        ++s.msgs;
        s.bytes += bytes;
        PRESS_TRACE_INSTANT(_tracer, _node, obs::Ev::CommSend, 0,
                            obs::packKindBytes(static_cast<int>(kind),
                                               bytes));
    }

    /** Deliver an arrived message to the server. */
    void
    deliver(const Incoming &incoming)
    {
        if (_handler)
            _handler(incoming);
    }

    /** Current load to piggy-back; -1 when no load is piggy-backed. */
    int
    piggyLoad() const
    {
        return _loadProvider ? _loadProvider() : -1;
    }

    /** May this end put bytes on the wire toward @p dst right now? */
    bool
    peerReachable(int dst) const
    {
        if (_selfDown)
            return false;
        return dst < 0 ||
               static_cast<std::size_t>(dst) >= _peerAlive.size() ||
               _peerAlive[static_cast<std::size_t>(dst)] != 0;
    }

    /** Reachability flag for @p peer (grows the table on demand; all
     *  peers start alive). */
    char &
    reach(int peer)
    {
        if (static_cast<std::size_t>(peer) >= _peerAlive.size())
            _peerAlive.resize(static_cast<std::size_t>(peer) + 1, 1);
        return _peerAlive[static_cast<std::size_t>(peer)];
    }

    /** Count a send suppressed by peerReachable(). Deliberately does
     *  NOT touch recordSend(): suppressed traffic must not perturb the
     *  Tables-2/4 accounting or the trace of a healthy run. */
    void countDroppedSend() { ++_droppedSends; }

    /** Count a receive-side error (flushed completion, arrival while
     *  down). */
    void countRxError() { ++_rxErrors; }

    int _node;
    MessageSizes _sizes;
    MessageHandler _handler;
    LoadProvider _loadProvider;
    CommStats _tx;
    obs::Tracer *_tracer = nullptr;
    std::vector<char> _peerAlive; ///< empty = everyone alive
    bool _selfDown = false;
    std::uint64_t _droppedSends = 0;
    std::uint64_t _rxErrors = 0;
};

/** A cluster's intra-cluster substrate, as buildCommMesh() wires it. */
struct CommMesh {
    std::unique_ptr<net::Fabric> fabric; ///< the internal network
    /** One checker watching every VIA NIC, CQ and credit gate, so
     *  cross-node rules (remote-write targets) and the report share
     *  one place; null over TCP or with PressConfig::viaCheck off. */
    std::unique_ptr<check::ViaChecker> checker;
    std::vector<std::unique_ptr<ClusterComm>> comms; ///< by node id
};

/**
 * Build @p config's internal network and one endpoint per node, linked
 * into a full mesh: VIA endpoints over cLAN for VIA/cLAN, otherwise
 * the kernel TCP stack with the costs of its network (Fast Ethernet for
 * TCP/FE, cLAN for TCP/cLAN). Node i's endpoint charges
 * @p nodes[i]'s CPU and is constructed under node i's scheduling
 * domain; the current domain is NoDomain on return.
 */
CommMesh buildCommMesh(sim::Simulator &sim, const PressConfig &config,
                       const std::vector<std::unique_ptr<osnode::Node>> &nodes);

} // namespace press::core

#endif // PRESS_CORE_COMM_HPP
