#include "via_nic.hpp"

#include "util/logging.hpp"
#include "util/units.hpp"

namespace press::via {

using util::US;

PostCosts
PostCosts::defaults()
{
    PostCosts c;
    c.sendPost = 1500;      // 1.5 us: fill descriptor, ring doorbell
    c.recvPost = 800;       // 0.8 us: replenish a receive descriptor
    c.cqPoll = 400;         // 0.4 us: read a CQ entry / poll a seq number
    c.cqWakeup = 7 * US;    // context switch of a blocked thread (P-II era)
    c.regPerPage = 20 * US; // pin + translate one page
    return c;
}

ViaNic::ViaNic(sim::Simulator &sim, net::Fabric &fabric, net::NodeId node,
               PostCosts costs)
    : _sim(sim), _fabric(fabric), _node(node), _costs(costs)
{
    PRESS_ASSERT(node >= 0 && node < fabric.ports(),
                 "ViaNic node id outside fabric");
}

MemoryRegion
ViaNic::registerMemory(std::uint64_t size, WriteHook hook)
{
    return _memory.registerMemory(size, std::move(hook));
}

bool
ViaNic::deregister(MemoryHandle handle)
{
    return _memory.deregister(handle);
}

void
ViaNic::setObserver(ViaObserver *observer)
{
    _observer = observer;
    _memory.setObserver(observer);
}

VirtualInterface *
ViaNic::createVi(Reliability reliability, CompletionQueue *send_cq,
                 CompletionQueue *recv_cq)
{
    int id = static_cast<int>(_vis.size());
    return &_vis.emplace_with([&] {
        return VirtualInterface(*this, _node, id, reliability, send_cq,
                                recv_cq);
    });
}

void
ViaNic::disconnect(VirtualInterface &a)
{
    VirtualInterface *peer = a.peer();
    a.markBroken();
    a.flushRecvQueue();
    if (peer) {
        peer->markBroken();
        peer->flushRecvQueue();
    }
}

void
ViaNic::connect(VirtualInterface &a, VirtualInterface &b)
{
    PRESS_ASSERT(!a._peer && !b._peer, "VI already connected");
    PRESS_ASSERT(a._reliability == b._reliability,
                 "reliability mismatch on VI connect");
    PRESS_ASSERT(&a != &b, "cannot connect a VI to itself");
    a._peer = &b;
    b._peer = &a;
}

sim::Tick
ViaNic::registrationCost(std::uint64_t bytes) const
{
    std::uint64_t pages = (bytes + 4095) / 4096;
    return static_cast<sim::Tick>(pages) * _costs.regPerPage;
}

void
ViaNic::processSend(VirtualInterface &vi, DescriptorPtr desc)
{
    // DMA source must be pinned. (Zero-length doorbell-only messages are
    // allowed without registration, mirroring real providers.)
    if (desc->length > 0 &&
        !_memory.find(desc->localAddr, desc->length)) {
        vi.completeSend(std::move(desc), Status::ErrorNotRegistered);
        return;
    }

    VirtualInterface *peer = vi.peer();
    PRESS_ASSERT(peer, "processSend on unconnected VI");

    if (desc->op == Opcode::Send)
        ++_stats.sendsPosted;
    else
        ++_stats.rdmaWritesPosted;
    _stats.bytesSent += desc->length;

    Reliability rel = vi.reliability();
    std::uint64_t wire_bytes = desc->length + HeaderBytes;
    VirtualInterface *src = &vi;

    if (rel == Reliability::Unreliable) {
        // Local completion as soon as the data leaves the NIC.
        _fabric.send(
            _node, peer->node(), wire_bytes,
            /*on_delivered=*/
            [this, peer, src, desc]() {
                if (desc->op == Opcode::Send)
                    arriveSend(*peer, desc, Reliability::Unreliable, *src);
                else
                    arriveRdma(*peer, desc, Reliability::Unreliable, *src);
            },
            /*on_tx_done=*/
            [src, desc]() { src->completeSend(desc, Status::Complete); });
    } else {
        // Reliable delivery: completion only after arrival.
        _fabric.send(_node, peer->node(), wire_bytes,
                     [this, peer, src, desc, rel]() {
                         if (desc->op == Opcode::Send)
                             arriveSend(*peer, desc, rel, *src);
                         else
                             arriveRdma(*peer, desc, rel, *src);
                     });
    }
}

void
ViaNic::completeOnSender(VirtualInterface &src_vi, DescriptorPtr desc,
                         Status status, bool break_vi)
{
    if (break_vi)
        src_vi.markBroken();
    src_vi.completeSend(std::move(desc), status);
}

void
ViaNic::arriveSend(VirtualInterface &dst_vi, DescriptorPtr src_desc,
                   Reliability reliability, VirtualInterface &src_vi)
{
    ViaNic &dst_nic = dst_vi.nic();

    // A torn-down end-point discards in-flight traffic.
    if (dst_vi.broken()) {
        if (reliability == Reliability::Unreliable)
            ++dst_nic._stats.dropsUnreliable;
        else
            completeOnSender(src_vi, std::move(src_desc),
                             Status::ErrorDisconnected);
        return;
    }

    DescriptorPtr recv = dst_vi.takeRecv();

    bool overrun = !recv || recv->length < src_desc->length;
    if (overrun) {
        ++dst_nic._stats.recvOverruns;
        if (recv) {
            // Buffer too small: the receive descriptor is consumed with
            // an error, like real VIA.
            recv->status = Status::ErrorRecvOverrun;
            dst_vi.completeRecv(std::move(recv));
        }
        if (reliability == Reliability::Unreliable) {
            ++dst_nic._stats.dropsUnreliable;
            // Sender already completed at TX time; nothing more to do.
        } else {
            // Reliable connections break on receive overrun. The
            // sender side breaks (and completes) in its own domain.
            dst_vi.markBroken();
            completeOnSender(src_vi, std::move(src_desc),
                             Status::ErrorRecvOverrun,
                             /*break_vi=*/true);
        }
        return;
    }

    recv->status = Status::Complete;
    recv->bytesDone = src_desc->length;
    recv->payload = src_desc->payload;
    recv->immediate = src_desc->immediate;
    dst_vi.completeRecv(std::move(recv));

    if (reliability != Reliability::Unreliable)
        completeOnSender(src_vi, std::move(src_desc),
                         Status::Complete);
}

void
ViaNic::arriveRdma(VirtualInterface &dst_vi, DescriptorPtr src_desc,
                   Reliability reliability, VirtualInterface &src_vi)
{
    ViaNic &dst_nic = dst_vi.nic();

    if (dst_vi.broken()) {
        if (reliability == Reliability::Unreliable)
            ++dst_nic._stats.dropsUnreliable;
        else
            completeOnSender(src_vi, std::move(src_desc),
                             Status::ErrorDisconnected);
        return;
    }

    bool ok = dst_nic._memory.deliverWrite(src_desc->remoteAddr,
                                           src_desc->length,
                                           src_desc->payload,
                                           src_desc->immediate);
    if (!ok) {
        ++dst_nic._stats.rdmaBadAddress;
        if (reliability != Reliability::Unreliable) {
            dst_vi.markBroken();
            completeOnSender(src_vi, std::move(src_desc),
                             Status::ErrorNotRegistered,
                             /*break_vi=*/true);
        }
        return;
    }

    if (reliability != Reliability::Unreliable)
        completeOnSender(src_vi, std::move(src_desc),
                         Status::Complete);
}

} // namespace press::via
