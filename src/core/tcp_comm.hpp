/**
 * @file
 * TCP backend of the intra-cluster comm layer.
 *
 * Used for the TCP/FE and TCP/cLAN configurations of Section 3.2: the
 * complete kernel TCP stack runs for every message (tcpnet::TcpStack
 * charges those costs), PRESS adds its helper-thread machinery on top,
 * and there are no explicit flow-control messages — TCP's windows do the
 * job transparently to the server (Section 2.2).
 */

#ifndef PRESS_CORE_TCP_COMM_HPP
#define PRESS_CORE_TCP_COMM_HPP

#include <memory>
#include <vector>

#include "core/calibration.hpp"
#include "core/comm.hpp"
#include "core/config.hpp"
#include "core/wire.hpp"
#include "sim/resource.hpp"
#include "tcpnet/tcp_stack.hpp"

namespace press::core {

/** One node's TCP intra-cluster endpoint. */
class TcpComm : public ClusterComm
{
  public:
    /**
     * @param sim     simulator
     * @param node    this node's id (== its internal-fabric port)
     * @param nodes   cluster size
     * @param cpu     node CPU; server-side comm work is charged here
     * @param fabric  the internal network (FE or cLAN)
     * @param cal     calibration constants
     * @param stack_costs  kernel stack costs of that network
     */
    TcpComm(sim::Simulator &sim, int node, int nodes,
            sim::FifoResource &cpu, net::Fabric &fabric,
            const Calibration &cal, tcpnet::TcpCosts stack_costs);

    /** Wire up the full mesh between all nodes' endpoints. Call once
     *  after constructing every endpoint; each must be a TcpComm. */
    static void linkMesh(std::vector<std::unique_ptr<ClusterComm>> &comms,
                         std::uint64_t sockbuf = 64 * 1024);

  protected:
    /** Every kind takes the same path: PRESS's send thread, then the
     *  kernel stack. */
    void post(int dst, WireMsg &&w, std::uint64_t bytes) override;

  private:
    void handleArrival(const net::Payload &payload);

    sim::FifoResource &_cpu;
    const Calibration &_cal;
    tcpnet::TcpStack _stack;
    std::vector<tcpnet::TcpChannel *> _channelTo; ///< indexed by node id
};

} // namespace press::core

#endif // PRESS_CORE_TCP_COMM_HPP
