#include "fabric.hpp"

#include "util/logging.hpp"
#include "util/units.hpp"

namespace press::net {

using util::MB;
using util::US;

FabricConfig
FabricConfig::fastEthernet()
{
    FabricConfig c;
    c.name = "FastEthernet";
    c.bandwidth = 11.75 * static_cast<double>(MB);
    c.txOverhead = 4 * US;
    c.rxOverhead = 4 * US;
    c.wireLatency = 10 * US;
    return c;
}

FabricConfig
FabricConfig::clan()
{
    FabricConfig c;
    c.name = "cLAN";
    c.bandwidth = 105.0 * static_cast<double>(MB);
    c.txOverhead = 3 * US;
    c.rxOverhead = 3 * US;
    c.wireLatency = 1 * US;
    return c;
}

Fabric::Fabric(sim::Simulator &sim, FabricConfig config, int ports)
    : _sim(sim), _config(std::move(config)), _stats(ports)
{
    PRESS_ASSERT(ports > 0, "fabric needs at least one port");
    PRESS_ASSERT(_config.bandwidth > 0, "fabric bandwidth must be > 0");
    _tx.reserve(ports);
    _rx.reserve(ports);
    _portDomain.reserve(ports);
    for (int i = 0; i < ports; ++i)
        _portDomain.push_back(static_cast<sim::Domain>(i));
    for (int i = 0; i < ports; ++i) {
        _tx.push_back(std::make_unique<sim::FifoResource>(
            sim, _config.name + ".tx" + std::to_string(i)));
        _rx.push_back(std::make_unique<sim::FifoResource>(
            sim, _config.name + ".rx" + std::to_string(i)));
    }
}

sim::Tick
Fabric::txTime(std::uint64_t bytes) const
{
    return _config.txOverhead + sim::transferTimeNs(bytes,
                                                    _config.bandwidth);
}

sim::Tick
Fabric::rxTime(std::uint64_t bytes) const
{
    return _config.rxOverhead + sim::transferTimeNs(bytes,
                                                    _config.bandwidth);
}

sim::Tick
Fabric::unloadedLatency(std::uint64_t bytes) const
{
    // Cut-through is not modelled: a store-and-forward hop at each end.
    return txTime(bytes) + _config.wireLatency + rxTime(bytes);
}

void
Fabric::setPortDomain(NodeId port, sim::Domain domain)
{
    checkPort(port);
    _portDomain[port] = domain;
}

sim::Domain
Fabric::portDomain(NodeId port) const
{
    checkPort(port);
    return _portDomain[port];
}

Fabric::Transfer *
Fabric::acquireTransfer(NodeId src, NodeId dst, std::uint64_t bytes,
                        DeliverFn on_delivered, DeliverFn on_tx_done)
{
    Transfer *t;
    if (_freeTransfers.empty()) {
        t = &_transferArena.emplace_back();
    } else {
        t = _freeTransfers.back();
        _freeTransfers.pop_back();
    }
    t->src = src;
    t->dst = dst;
    t->bytes = bytes;
    t->sendTick = _sim.now();
    t->onDelivered = std::move(on_delivered);
    t->onTxDone = std::move(on_tx_done);
    return t;
}

void
Fabric::releaseTransfer(Transfer *t)
{
    t->onDelivered = nullptr;
    t->onTxDone = nullptr;
    _freeTransfers.push_back(t);
}

void
Fabric::send(NodeId src, NodeId dst, std::uint64_t bytes,
             DeliverFn on_delivered, DeliverFn on_tx_done)
{
    checkPort(src);
    checkPort(dst);

    auto &st = _stats[src];
    ++st.messagesSent;
    st.bytesSent += bytes;

    Transfer *t = acquireTransfer(src, dst, bytes, std::move(on_delivered),
                                  std::move(on_tx_done));
    if (src == dst) {
        // Local short-circuit: only the TX engine is charged.
        _tx[src]->submit(txTime(bytes), 0,
                         [this, t]() { loopbackDone(t); });
        return;
    }
    _tx[src]->submit(txTime(bytes), 0, [this, t]() { txDone(t); });
}

void
Fabric::loopbackDone(Transfer *t)
{
    auto &rst = _stats[t->dst];
    ++rst.messagesReceived;
    rst.bytesReceived += t->bytes;
    DeliverFn tx = std::move(t->onTxDone);
    DeliverFn cb = std::move(t->onDelivered);
    releaseTransfer(t);
    if (tx)
        tx();
    if (cb)
        cb();
}

void
Fabric::txDone(Transfer *t)
{
    DeliverFn tx = std::move(t->onTxDone);
    if (tx)
        tx();
    // The wire hop is the cross-node handoff: the arrival (and every
    // receive-side event it causes) runs in the destination's domain,
    // wireLatency ahead — the edge a conservative parallel scheduler's
    // lookahead window is built on.
    _sim.scheduleIn(_portDomain[t->dst], _config.wireLatency,
                    [this, t]() { wireDone(t); });
}

void
Fabric::wireDone(Transfer *t)
{
    _rx[t->dst]->submit(rxTime(t->bytes), 0, [this, t]() { rxDone(t); });
}

void
Fabric::rxDone(Transfer *t)
{
    auto &rst = _stats[t->dst];
    ++rst.messagesReceived;
    rst.bytesReceived += t->bytes;
    if (_observer)
        _observer->onDeliver(*this, t->src, t->dst, t->bytes,
                             t->sendTick, _sim.now());
    DeliverFn cb = std::move(t->onDelivered);
    releaseTransfer(t);
    if (cb)
        cb();
}

const PortStats &
Fabric::stats(NodeId port) const
{
    checkPort(port);
    return _stats[port];
}

double
Fabric::txUtilization(NodeId port) const
{
    checkPort(port);
    return _tx[port]->utilization();
}

double
Fabric::rxUtilization(NodeId port) const
{
    checkPort(port);
    return _rx[port]->utilization();
}

void
Fabric::resetStats()
{
    for (auto &s : _stats)
        s = PortStats{};
    for (auto &t : _tx)
        t->resetStats();
    for (auto &r : _rx)
        r->resetStats();
}

void
Fabric::checkPort(NodeId port) const
{
    PRESS_ASSERT(port >= 0 && port < ports(), _config.name,
                 ": bad port id ", port);
}

} // namespace press::net
