/**
 * @file
 * Switched network fabric model.
 *
 * The paper's cluster uses two switched networks: Fast Ethernet and the
 * Giganet cLAN. Both are full-duplex and switched, so the dominant queueing
 * points are the per-port NIC transmit and receive engines; the switch core
 * itself is non-blocking. We model each port as a pair of FifoResources
 * (TX and RX) whose per-message service time is a fixed NIC overhead plus
 * serialization at the port bandwidth, connected by a constant wire/switch
 * latency.
 *
 * The port bandwidth is the *effective* NIC data rate, not the raw signal
 * rate: the Giganet cLAN signals at 2.5 Gbit/s but its DMA engines peak at
 * ~105 MB/s, matching the 102 MB/s the paper measures for 32 KB messages.
 */

#ifndef PRESS_NET_FABRIC_HPP
#define PRESS_NET_FABRIC_HPP

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace press::net {

/** Index of a node/port on a fabric. */
using NodeId = int;

/** Callback invoked when a transfer fully arrives at the destination. */
using DeliverFn = sim::EventFn;

/** Static description of a fabric. */
struct FabricConfig {
    std::string name;          ///< diagnostic name
    double bandwidth = 0;      ///< effective port bandwidth, bytes/second
    sim::Tick txOverhead = 0;  ///< per-message TX NIC occupancy, ns
    sim::Tick rxOverhead = 0;  ///< per-message RX NIC occupancy, ns
    sim::Tick wireLatency = 0; ///< propagation + switch latency, ns

    /**
     * Switched Fast Ethernet. 100 Mbit/s links; ~11.75 MB/s effective
     * after framing (the paper observes 11.5 MB/s end-to-end for 32 KB
     * TCP messages, which includes protocol headers). Its txOverhead
     * is the model's external-NIC overhead.
     */
    static FabricConfig fastEthernet();

    /**
     * Giganet cLAN. 2.5 Gbit/s links, NIC DMA-limited to ~105 MB/s
     * (paper: 102 MB/s observed for 32 KB VIA messages). Its
     * txOverhead is the model's internal-NIC overhead.
     */
    static FabricConfig clan();
};

/** Per-port traffic statistics. */
struct PortStats {
    std::uint64_t messagesSent = 0;
    std::uint64_t bytesSent = 0;
    std::uint64_t messagesReceived = 0;
    std::uint64_t bytesReceived = 0;
};

class Fabric;

/**
 * Observer of completed cross-port transfers. The causality checker
 * (check::CausalityChecker) implements this to verify that every
 * delivery took at least the fabric's unloaded latency — the lower
 * bound a conservative parallel scheduler's lookahead window would
 * rely on. With no observer attached the hook is a null-pointer test.
 */
class FabricObserver
{
  public:
    virtual ~FabricObserver() = default;

    /**
     * A transfer of @p bytes from @p src arrived fully at @p dst.
     * @p send_tick is the time send() was called; @p deliver_tick is
     * now(). Loopback (src == dst) transfers are not reported — they
     * never cross a node boundary.
     */
    virtual void onDeliver(const Fabric &fabric, NodeId src, NodeId dst,
                           std::uint64_t bytes, sim::Tick send_tick,
                           sim::Tick deliver_tick) = 0;
};

/**
 * A switched fabric connecting @p ports full-duplex ports.
 *
 * send() models the full NIC-to-NIC path; the caller layers protocol CPU
 * costs (TCP stack, VIA doorbells/completions) on top.
 */
class Fabric
{
  public:
    Fabric(sim::Simulator &sim, FabricConfig config, int ports);

    /**
     * Transfer @p bytes from @p src to @p dst and invoke @p on_delivered
     * when the last byte has been received. @p on_tx_done (optional) fires
     * when the source port finishes serializing the message — the moment a
     * NIC reports local completion for unreliable traffic.
     *
     * Loopback (src == dst) is delivered after the TX overhead only, since
     * real NICs short-circuit local traffic.
     */
    void send(NodeId src, NodeId dst, std::uint64_t bytes,
              DeliverFn on_delivered, DeliverFn on_tx_done = {});

    /** Serialization + overhead time a message of @p bytes occupies a
     *  port engine for. */
    sim::Tick txTime(std::uint64_t bytes) const;
    sim::Tick rxTime(std::uint64_t bytes) const;

    /**
     * Unloaded end-to-end latency of a message of @p bytes (the number a
     * ping-pong microbenchmark measures, minus host CPU costs).
     */
    sim::Tick unloadedLatency(std::uint64_t bytes) const;

    int ports() const { return static_cast<int>(_tx.size()); }
    const FabricConfig &config() const { return _config; }
    const PortStats &stats(NodeId port) const;

    /**
     * Scheduling domain of @p port (default: the port index, matching
     * the one-node-per-port internal fabric). Receive-side events of a
     * transfer run in the destination port's domain: the wire hop is
     * where causality crosses nodes, so the fabric re-tags there and
     * the wire latency becomes the cross-domain lookahead.
     */
    void setPortDomain(NodeId port, sim::Domain domain);
    sim::Domain portDomain(NodeId port) const;

    /** Attach a delivery observer (null detaches). */
    void setObserver(FabricObserver *observer) { _observer = observer; }

    /** TX engine utilization of @p port over the run so far. */
    double txUtilization(NodeId port) const;
    double rxUtilization(NodeId port) const;

    /** Reset traffic statistics on every port. */
    void resetStats();

  private:
    /**
     * One in-flight message. Pooled so that the TX/wire/RX stage
     * closures capture only {this, Transfer*} and fit EventFn's inline
     * storage instead of nesting callbacks inside callbacks.
     */
    struct Transfer {
        NodeId src = 0;
        NodeId dst = 0;
        std::uint64_t bytes = 0;
        sim::Tick sendTick = 0; ///< when send() was called
        DeliverFn onDelivered;
        DeliverFn onTxDone;
    };

    Transfer *acquireTransfer(NodeId src, NodeId dst, std::uint64_t bytes,
                              DeliverFn on_delivered, DeliverFn on_tx_done);
    void releaseTransfer(Transfer *t);
    void txDone(Transfer *t);
    void wireDone(Transfer *t);
    void rxDone(Transfer *t);
    void loopbackDone(Transfer *t);

    void checkPort(NodeId port) const;

    sim::Simulator &_sim;
    FabricConfig _config;
    std::vector<std::unique_ptr<sim::FifoResource>> _tx;
    std::vector<std::unique_ptr<sim::FifoResource>> _rx;
    std::vector<PortStats> _stats;
    std::vector<sim::Domain> _portDomain;
    FabricObserver *_observer = nullptr;
    std::deque<Transfer> _transferArena; ///< stable addresses, reused
    std::vector<Transfer *> _freeTransfers;
};

} // namespace press::net

#endif // PRESS_NET_FABRIC_HPP
