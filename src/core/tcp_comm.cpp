#include "tcp_comm.hpp"

#include "osnode/node.hpp"
#include "util/logging.hpp"

namespace press::core {

using osnode::CatIntraComm;

TcpComm::TcpComm(sim::Simulator &sim, int node, int nodes,
                 sim::FifoResource &cpu, net::Fabric &fabric,
                 const Calibration &cal, tcpnet::TcpCosts stack_costs)
    : ClusterComm(node, cal.sizes),
      _cpu(cpu),
      _cal(cal),
      _stack(sim, fabric, node, cpu, CatIntraComm, stack_costs),
      _channelTo(nodes, nullptr)
{
}

void
TcpComm::linkMesh(std::vector<std::unique_ptr<ClusterComm>> &comms,
                  std::uint64_t sockbuf)
{
    for (std::size_t i = 0; i < comms.size(); ++i) {
        for (std::size_t j = i + 1; j < comms.size(); ++j) {
            auto *ci = static_cast<TcpComm *>(comms[i].get());
            auto *cj = static_cast<TcpComm *>(comms[j].get());
            auto [ij, ji] =
                tcpnet::TcpStack::connect(ci->_stack, cj->_stack, sockbuf);
            ci->_channelTo[j] = ij;
            cj->_channelTo[i] = ji;
            ij->onReceive([cj](std::uint64_t, const net::Payload &p) {
                cj->handleArrival(p);
            });
            ji->onReceive([ci](std::uint64_t, const net::Payload &p) {
                ci->handleArrival(p);
            });
        }
    }
}

void
TcpComm::post(int dst, WireMsg &&w, std::uint64_t logical_bytes)
{
    PRESS_ASSERT(dst >= 0 && dst < static_cast<int>(_channelTo.size()) &&
                     dst != _node,
                 "bad destination ", dst);
    if (!peerReachable(dst)) {
        // TCP analogue of a crashed peer: the connect/send attempt eats
        // the send-path CPU and comes back with RST/timeout — the
        // message never reaches a handler.
        countDroppedSend();
        _cpu.submit(_cal.tcp.serverSend, CatIntraComm, []() {});
        return;
    }
    tcpnet::TcpChannel *channel = _channelTo[dst];
    PRESS_ASSERT(channel, "mesh not connected");

    logical_bytes += piggyWord(w);
    recordSend(w.kind, logical_bytes);

    // PRESS-side send machinery (digest + semaphore + send thread), then
    // the kernel stack takes over inside TcpChannel::send.
    net::Payload payload = net::makePayload<WireMsg>(std::move(w));
    _cpu.submit(_cal.tcp.serverSend, CatIntraComm,
                [this, dst, channel, logical_bytes, payload]() {
                    if (!peerReachable(dst)) {
                        countDroppedSend();
                        return;
                    }
                    channel->send(logical_bytes, payload);
                });
}

void
TcpComm::handleArrival(const net::Payload &payload)
{
    if (_selfDown) {
        // Crashed node: bytes in flight die with the connection.
        countRxError();
        return;
    }
    // Kernel receive costs were charged by the stack; add the PRESS
    // receive-thread path, then hand the message to the server.
    _cpu.submit(_cal.tcp.serverRecv, CatIntraComm, [this, payload]() {
        const auto *w = net::payloadAs<WireMsg>(payload);
        PRESS_ASSERT(w, "foreign payload on PRESS channel");
        PRESS_TRACE_INSTANT(
            _tracer, _node, obs::Ev::CommRecv, 0,
            obs::packKindBytes(static_cast<int>(w->kind), 0));
        deliver(toIncoming(*w, payload));
    });
}

} // namespace press::core
