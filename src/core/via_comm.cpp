#include "via_comm.hpp"

#include <algorithm>
#include <string>

#include "check/via_checker.hpp"
#include "core/dissemination.hpp"
#include "osnode/node.hpp"
#include "util/logging.hpp"

namespace press::core {

using osnode::CatIntraComm;
using via::Address;

namespace {

/** Bytes reserved per control-ring slot (message + sequence number). */
constexpr std::uint64_t SlotBytes = 128;

/** Extra pre-posted receive descriptors for ungated (flow) traffic. */
constexpr int FlowReserve = 8;

/** One pre-posted receive buffer: the largest regular file message plus
 *  its header. */
constexpr std::uint64_t RecvBufBytes = LargeFileCutoff + 64;

constexpr std::size_t Channels =
    static_cast<std::size_t>(FlowChannel::NumChannels);

/** Checker/trace names of the flow-controlled channels. */
constexpr const char *ChannelNames[Channels] = {"regular", "forward",
                                                "caching", "file"};

/** No credit window: an ungated send, or an arrival with no slot or
 *  descriptor to give back. */
constexpr FlowChannel NoChannel = FlowChannel::NumChannels;

/** Per-peer memory a remote write can land in (Table 3's rmw cells). */
enum Region : std::size_t {
    ForwardRing,
    CachingRing,
    FileMetaRing,
    FileDataRing,
    FlowWords,
    LoadWord,
    NumRegions,
};

} // namespace

/** Per-peer connection state, held by value in ViaComm::_peers. */
struct ViaComm::Peer {
    via::VirtualInterface *vi = nullptr;

    // ---- sender side, per FlowChannel: credits for the peer's receive
    // resources, and the next ring slot to write (rings only) ----
    std::array<CreditGate, Channels> gates;
    std::array<std::uint64_t, Channels> seqs{};

    // Per Region, the peer's base this node writes to (0 when no path
    // targets it).
    std::array<Address, NumRegions> remote{};

    // ---- receiver side: per Region, the base of the local region this
    // peer writes into (0 when none is registered) ----
    std::array<Address, NumRegions> local{};
    Address recvBufs = 0; ///< region of the pre-posted recv buffers
    Address staging = 0;  ///< send-side bounce buffers toward the peer

    // Credits owed back to the peer for what we consumed, per
    // FlowChannel.
    std::array<CreditReturner, Channels> returns;

    int id = -1;

    Peer(int id_, int control_window, int file_window, int control_batch,
         int file_batch)
        : gates{CreditGate(control_window), CreditGate(control_window),
                CreditGate(control_window), CreditGate(file_window)},
          returns{CreditReturner(control_batch),
                  CreditReturner(control_batch),
                  CreditReturner(control_batch), CreditReturner(file_batch)},
          id(id_)
    {
    }

    CreditGate &
    gate(FlowChannel c)
    {
        return gates[static_cast<std::size_t>(c)];
    }
    std::uint64_t &
    seq(FlowChannel c)
    {
        return seqs[static_cast<std::size_t>(c)];
    }
    CreditReturner &
    returner(FlowChannel c)
    {
        return returns[static_cast<std::size_t>(c)];
    }
};

ViaComm::ViaComm(sim::Simulator &sim, int node, const PressConfig &config,
                 sim::FifoResource &cpu, net::Fabric &fabric,
                 check::ViaChecker *checker)
    : ClusterComm(node, config.calibration.sizes),
      _config(config),
      _cal(_config.calibration),
      _cpu(cpu),
      _nic(std::make_unique<via::ViaNic>(sim, fabric, node))
{
    // Table 3, plus the load rows the paper's dissemination variants
    // add. Digests are variable-size, so they never go into a fixed
    // ring slot; membership rides the caching ring when there is one.
    int v = static_cast<int>(_config.version);
    Path ring = v >= 2 ? Path::RmwRing : Path::Regular;
    _pathOf.fill(Path::Regular);
    _pathOf[BodyIndex<FlowMsg>] = v >= 1 ? Path::RmwWord : Path::Regular;
    _pathOf[BodyIndex<ForwardMsg>] = ring;
    _pathOf[BodyIndex<CachingMsg>] = ring;
    _pathOf[BodyIndex<MembershipMsg>] = ring;
    _pathOf[BodyIndex<FileMsg>] = v >= 3 ? Path::RmwFile : Path::Regular;
    if (_config.dissemination.useRmw)
        _pathOf[BodyIndex<LoadMsg>] = Path::RmwWord;

    // A receive thread exists whenever some body this configuration
    // sends still travels as a regular two-sided send (Section 3.4:
    // "this version does not require a receive thread" only from V3
    // on, with piggy-backed loads). Load bodies exist only under the
    // dissemination kinds that send them.
    for (std::size_t i = 0; i < _pathOf.size(); ++i)
        _recvThreadNeeded |=
            DisseminationEngine::sendsBody(_config.dissemination.kind, i) &&
            _pathOf[i] == Path::Regular;

    int nodes = _config.nodes;

    // The receive CQ can never legally hold more completions than the
    // receive descriptors this node pre-posts, so advertise exactly that
    // capacity and let the checker police it. Send completions are only
    // bounded per VI (ungated credit-word writes share the queue), so
    // the send CQ stays unbounded.
    std::size_t recv_capacity = 0;
    if (_recvThreadNeeded && nodes > 1)
        recv_capacity = static_cast<std::size_t>(nodes - 1) *
                        (_config.controlWindow + FlowReserve);
    _recvCq = std::make_unique<via::CompletionQueue>(sim, recv_capacity);
    _sendCq = std::make_unique<via::CompletionQueue>(sim);

    if (checker) {
        checker->attachNic(*_nic);
        checker->attachCq(*_recvCq, _node);
        checker->attachCq(*_sendCq, _node);
    }
    // RMW file-ring slots are acknowledged one by one (the slot word is
    // the acknowledgement), matching Table 4's near-1:1 Flow:File ratio
    // in V3-V5; the regular path batches.
    int file_batch =
        onPath<FileMsg>(Path::RmwFile) ? 1 : _config.fileCreditBatch;
    // One Peer per node id (this node's own slot stays unlinked), never
    // reallocated: the write hooks below keep pointers into _peers.
    static_assert(sizeof(Peer) <= 384,
                  "ViaComm::Peer exists per (node, peer) pair: 65 280 of "
                  "them at 256 nodes");
    _peers.reserve(nodes);
    // A Peer keeps the base of each region it registers.
    auto reg = [this](std::uint64_t size, via::WriteHook hook = {}) {
        return _nic->registerMemory(size, std::move(hook)).base;
    };
    for (int j = 0; j < nodes; ++j) {
        Peer *p = &_peers.emplace_back(j, _config.controlWindow,
                                       _config.fileWindow,
                                       _config.controlCreditBatch,
                                       file_batch);
        if (j == _node)
            continue;

        if (checker) {
            std::string to = "->" + std::to_string(j);
            for (std::size_t c = 0; c < Channels; ++c)
                p->gates[c].setObserver(
                    checker->creditHook(_node, ChannelNames[c] + to));
        }

        // Receive-side regions, with write hooks feeding the poll paths.
        // Every node shares this path table, so a region is registered
        // only when some peer's send can target it; a write anywhere
        // else fails loudly (rdmaBadAddress, broken VI).
        auto ring = [this, p](std::uint64_t, std::uint64_t,
                              const via::Payload &pl, std::uint32_t) {
            // Poll hit at the end of the main loop; consume + return
            // the slot.
            const auto *w = net::payloadAs<WireMsg>(pl);
            PRESS_ASSERT(w, "bad ring payload");
            consume(*p, _cal.via.rmwRecvControl, pl,
                    w->kind == MsgKind::Forward ? FlowChannel::Forward
                                                : FlowChannel::Caching,
                    /*trace_poll=*/true);
        };
        if (onPath<ForwardMsg>(Path::RmwRing))
            p->local[ForwardRing] =
                reg(_config.controlWindow * SlotBytes, ring);
        if (onPath<CachingMsg>(Path::RmwRing) ||
            onPath<MembershipMsg>(Path::RmwRing))
            p->local[CachingRing] =
                reg(_config.controlWindow * SlotBytes, ring);
        if (onPath<FileMsg>(Path::RmwFile)) {
            p->local[FileMetaRing] = reg(
                _config.fileWindow * SlotBytes,
                [this, p](std::uint64_t, std::uint64_t,
                          const via::Payload &pl, std::uint32_t) {
                    fileArrived(*p, pl);
                });
            // File data lands silently; the metadata write triggers
            // consumption (it is posted after the data on the same VI,
            // so VIA's in-order delivery guarantees the data is already
            // there).
            p->local[FileDataRing] = reg(std::max<std::uint64_t>(
                _config.fileWindow * LargeFileCutoff, 1));
        }
        if (onPath<FlowMsg>(Path::RmwWord))
            p->local[FlowWords] = reg(
                static_cast<int>(FlowChannel::NumChannels) * 8,
                [this, p](std::uint64_t, std::uint64_t,
                          const via::Payload &pl, std::uint32_t) {
                    const auto *w = net::payloadAs<WireMsg>(pl);
                    PRESS_ASSERT(w, "bad flow-word payload");
                    const auto *flow = std::get_if<FlowMsg>(&w->body);
                    PRESS_ASSERT(flow, "flow word without FlowMsg");
                    creditArrived(*p, *flow);
                });
        if (onPath<LoadMsg>(Path::RmwWord))
            p->local[LoadWord] = reg(
                8, [this, p](std::uint64_t, std::uint64_t,
                             const via::Payload &pl, std::uint32_t) {
                    // The main thread notices the overwritten word on its
                    // next poll; only the probe costs CPU.
                    consume(*p, _cal.via.pollProbe, pl, NoChannel,
                            /*trace_poll=*/false);
                });
        if (_recvThreadNeeded)
            p->recvBufs =
                reg((_config.controlWindow + FlowReserve) * RecvBufBytes);
        p->staging = reg(std::max<std::uint64_t>(
            (_config.controlWindow + _config.fileWindow) * LargeFileCutoff,
            1));
    }
}

ViaComm::~ViaComm() = default;

void
ViaComm::linkMesh(std::vector<std::unique_ptr<ClusterComm>> &comms)
{
    int n = static_cast<int>(comms.size());
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            auto &a = static_cast<ViaComm &>(*comms[i]);
            auto &b = static_cast<ViaComm &>(*comms[j]);
            via::VirtualInterface *va = a._nic->createVi(
                via::Reliability::ReliableDelivery, a._sendCq.get(),
                a._recvCq.get());
            via::VirtualInterface *vb = b._nic->createVi(
                via::Reliability::ReliableDelivery, b._sendCq.get(),
                b._recvCq.get());
            via::ViaNic::connect(*va, *vb);
            Peer &pa = a._peers[j];
            Peer &pb = b._peers[i];
            pa.vi = va;
            pb.vi = vb;

            // Exchange region addresses (connection-setup time, free).
            pa.remote = pb.local;
            pb.remote = pa.local;

            // Pre-post receive descriptors for regular traffic.
            a.repostRecvs(pa);
            b.repostRecvs(pb);
        }
    }
    for (auto &c : comms) {
        auto &via = static_cast<ViaComm &>(*c);
        if (via._recvThreadNeeded)
            via.armRecvThread();
    }
}

void
ViaComm::setTracer(obs::Tracer *tracer, int node)
{
    ClusterComm::setTracer(tracer, node);
    _stalls =
        tracer ? &tracer->metrics().counter("comm.stalls", node) : nullptr;
}

sim::Tick
ViaComm::copyCost(std::uint64_t bytes) const
{
    return sim::transferTimeNs(bytes, _cal.via.copyBandwidth);
}

sim::Tick
ViaComm::cacheInsertCost(std::uint64_t bytes) const
{
    if (_config.version != Version::V5)
        return 0;
    return _nic->registrationCost(bytes);
}

sim::Tick
ViaComm::cacheEvictCost(std::uint64_t bytes) const
{
    return cacheInsertCost(bytes) / 2;
}

sim::Tick
ViaComm::perRequestOverhead() const
{
    if (static_cast<int>(_config.version) < 2)
        return 0;
    return _cal.via.pollProbe * (_config.nodes - 1);
}

// ---------------------------------------------------------------------
// Send paths
// ---------------------------------------------------------------------

void
ViaComm::post(int dst, WireMsg &&w, std::uint64_t bytes)
{
    if (!peerReachable(dst)) {
        countDroppedSend();
        return;
    }
    Peer &peer = _peers.at(dst);
    switch (_pathOf[w.body.index()]) {
      case Path::Regular:
        return postRegular(peer, std::move(w), bytes);
      case Path::RmwRing:
        return postRing(peer, std::move(w), bytes);
      case Path::RmwWord:
        return postWord(peer, std::move(w), bytes);
      case Path::RmwFile:
        return postFile(peer, std::move(w));
    }
}

void
ViaComm::postRegular(Peer &peer, WireMsg &&w, std::uint64_t logical_bytes)
{
    logical_bytes += piggyWord(w);
    recordSend(w.kind, logical_bytes);
    // Credits travel outside the window they replenish.
    launch(peer,
           w.kind == MsgKind::Flow ? NoChannel : FlowChannel::Regular,
           _cal.via.regularSend + copyCost(logical_bytes),
           {.msgBytes = logical_bytes}, std::move(w));
}

void
ViaComm::postRing(Peer &peer, WireMsg &&w, std::uint64_t logical_bytes)
{
    logical_bytes += piggyWord(w);
    PRESS_ASSERT(logical_bytes <= SlotBytes, msgKindName(w.kind), " of ",
                 logical_bytes, " B overflows a ", SlotBytes,
                 " B ring slot");
    recordSend(w.kind, logical_bytes);

    bool forward = w.kind == MsgKind::Forward;
    FlowChannel channel = forward ? FlowChannel::Forward : FlowChannel::Caching;
    Address ring = peer.remote[forward ? ForwardRing : CachingRing];
    Address slot =
        ring + (peer.seq(channel)++ % _config.controlWindow) * SlotBytes;
    launch(peer, channel, _cal.via.rmwSend + copyCost(logical_bytes),
           {.msgAt = slot, .msgBytes = logical_bytes}, std::move(w));
}

void
ViaComm::postWord(Peer &peer, WireMsg &&w, std::uint64_t logical_bytes)
{
    // A bare word carries no piggy-back. Credit words are charged
    // Table 4's flowRmw; the load word keeps the load message size.
    w.piggyLoad = -1;
    Address target;
    if (const auto *flow = std::get_if<FlowMsg>(&w.body)) {
        logical_bytes = _cal.sizes.flowRmw;
        target = peer.remote[FlowWords] +
                 static_cast<int>(flow->channel) * 8;
    } else {
        // Dissemination rumors are full messages (origin/seq/hops),
        // never the single overwritable word — rumors about different
        // origins must not clobber each other.
        const auto *load = std::get_if<LoadMsg>(&w.body);
        PRESS_ASSERT(load && load->origin < 0,
                     "only flow credits and load broadcasts fit the "
                     "RMW word");
        target = peer.remote[LoadWord];
    }
    recordSend(w.kind, logical_bytes);

    // Overwritable word: no flow control, tiny post cost.
    launch(peer, NoChannel, _cal.via.rmwSendWord,
           {.msgAt = target, .msgBytes = 4}, std::move(w));
}

void
ViaComm::postFile(Peer &peer, WireMsg &&w)
{
    bool zero_copy_tx = _config.version == Version::V5;

    // The data goes into the large ring as is; the metadata message
    // (not the regular path's file header) carries the piggy-back.
    std::uint64_t file_bytes = std::get<FileMsg>(w.body).bytes;
    std::uint64_t meta_bytes = _cal.sizes.fileMeta + piggyWord(w);
    // Two messages per file (data + metadata): both counted as File
    // traffic, which is what doubles the message count in Table 4.
    recordSend(MsgKind::File, file_bytes);
    recordSend(MsgKind::File, meta_bytes);

    std::uint64_t slot = peer.seq(FlowChannel::File)++ % _config.fileWindow;
    launch(peer, FlowChannel::File,
           2 * _cal.via.rmwSend + (zero_copy_tx ? 0 : copyCost(file_bytes)),
           {.dataAt = peer.remote[FileDataRing] + slot * LargeFileCutoff,
            .dataBytes = file_bytes,
            .msgAt = peer.remote[FileMetaRing] + slot * SlotBytes,
            .msgBytes = meta_bytes},
           std::move(w));
}

void
ViaComm::launch(Peer &peer, FlowChannel channel, sim::Tick cpu_cost,
                Descs descs, WireMsg &&w)
{
    auto put = [this, &peer, descs,
                payload = net::makePayload<WireMsg>(std::move(w))]() {
        drainSendCq();
        if (!peerReachable(peer.id)) {
            countDroppedSend();
            return;
        }
        // Data first, then the message; same VI, so VIA's in-order
        // delivery publishes them in order.
        Address staging = peer.staging;
        bool ok = true;
        if (descs.dataAt)
            ok = peer.vi->postSend(via::makeRdmaWrite(
                staging, descs.dataBytes, descs.dataAt));
        ok &= peer.vi->postSend(
            descs.msgAt ? via::makeRdmaWrite(staging, descs.msgBytes,
                                             descs.msgAt, payload)
                        : via::makeSend(staging, descs.msgBytes, payload));
        PRESS_ASSERT(ok, "send queue overflow despite flow control");
    };
    if (channel == NoChannel) {
        _cpu.submit(cpu_cost, CatIntraComm, std::move(put));
        return;
    }
    bool ran = peer.gate(channel).acquire(
        [this, cpu_cost, put = std::move(put)]() mutable {
            _cpu.submit(cpu_cost, CatIntraComm, std::move(put));
        });
    if (!ran && _stalls) {
        // Per (peer, channel): the trace says which window ran dry.
        PRESS_TRACE_INSTANT(_tracer, _traceNode, obs::Ev::CommStall, 0,
                            static_cast<std::uint64_t>(channel));
        _stalls->add();
    }
}

// ---------------------------------------------------------------------
// Receive paths
// ---------------------------------------------------------------------

void
ViaComm::armRecvThread()
{
    _recvCq->notify([this]() {
        // The blocked receive thread is woken: one context switch.
        _cpu.submit(_nic->costs().cqWakeup, CatIntraComm,
                    [this]() { drainRecvCq(); });
    });
}

void
ViaComm::drainRecvCq()
{
    bool any = false;
    while (auto c = _recvCq->poll()) {
        any = true;
        processRegular(std::move(c->desc), c->vi);
    }
    if (!any) {
        armRecvThread();
        return;
    }
    // Stay "awake": once the queued CPU work retires, look again without
    // paying another wake-up.
    _cpu.submit(0, CatIntraComm, [this]() { drainRecvCq(); });
}

void
ViaComm::processRegular(via::DescriptorPtr desc,
                        via::VirtualInterface *vi)
{
    if (desc->status != via::Status::Complete) {
        // A connection teardown drained this pre-posted buffer; drop
        // it. The buffer is re-posted when the peer end revives.
        PRESS_ASSERT(desc->status == via::Status::ErrorFlushed,
                     "regular receive failed: flow control must "
                     "prevent overruns (status ",
                     static_cast<int>(desc->status), ")");
        countRxError();
        return;
    }

    // Identify the sender by the VI the message came in on: its
    // connected end sits on the sender's NIC.
    PRESS_ASSERT(vi->peer(), "completion on an unconnected VI");
    int from = vi->peer()->node();
    Peer &peer = _peers.at(from);
    PRESS_ASSERT(peer.vi == vi, "completion from unknown VI");

    net::Payload payload = desc->payload;
    const auto *w = net::payloadAs<WireMsg>(payload);
    PRESS_ASSERT(w, "foreign payload on PRESS VI");
    MsgKind kind = w->kind;
    std::uint64_t bytes = desc->bytesDone;
    PRESS_TRACE_INSTANT(_tracer, _traceNode, obs::Ev::CommRecv, 0,
                        obs::packKindBytes(static_cast<int>(kind), bytes));

    // Replenish the buffer immediately (NIC-side, free) so ungated
    // flow traffic never overruns; the consumed descriptor goes back to
    // its pool.
    desc.reset();
    vi->postRecvs(peer.recvBufs, RecvBufBytes, 1);

    // Receive-thread CPU work: wake-path share + digest copy, plus the
    // unavoidable big copy when the payload is a file (V0-V2).
    sim::Tick cost = _cal.via.regularRecv + _nic->costs().recvPost +
                     copyCost(kind == MsgKind::File
                                  ? bytes
                                  : std::min<std::uint64_t>(bytes, SlotBytes));
    // Gated kinds consumed a descriptor credit; batch it back.
    consume(peer, cost, payload,
            kind == MsgKind::Flow ? NoChannel : FlowChannel::Regular,
            /*trace_poll=*/false);
}

void
ViaComm::fileArrived(Peer &peer, const net::Payload &payload)
{
    const auto *w = net::payloadAs<WireMsg>(payload);
    PRESS_ASSERT(w, "bad file-meta payload");
    const auto *file = std::get_if<FileMsg>(&w->body);
    PRESS_ASSERT(file, "file metadata without FileMsg body");

    bool zero_copy_rx = static_cast<int>(_config.version) >= 4;
    PRESS_TRACE_INSTANT(_tracer, _traceNode, obs::Ev::CommRmwWrite, 0,
                        obs::packKindBytes(
                            static_cast<int>(MsgKind::File), file->bytes));
    // V3: the receive copy frees the ring slot. V4/V5: the slot stays
    // busy until fileBufferDone().
    consume(peer,
            _cal.via.rmwRecvFile + (zero_copy_rx ? 0 : copyCost(file->bytes)),
            payload, zero_copy_rx ? NoChannel : FlowChannel::File,
            /*trace_poll=*/false);
}

void
ViaComm::consume(Peer &peer, sim::Tick cpu_cost, const net::Payload &payload,
                 FlowChannel channel, bool trace_poll)
{
    auto consumed = [this, &peer, payload, channel, trace_poll]() {
        const auto *w = net::payloadAs<WireMsg>(payload);
        PRESS_ASSERT(w, "foreign payload on PRESS VI");
        if (trace_poll)
            PRESS_TRACE_INSTANT(
                _tracer, _traceNode, obs::Ev::CommRmwWrite, 0,
                obs::packKindBytes(static_cast<int>(w->kind), 0));
        if (const auto *flow = std::get_if<FlowMsg>(&w->body))
            creditArrived(peer, *flow);
        deliver(toIncoming(*w, payload));
        if (channel != NoChannel)
            returnCredits(peer, channel,
                          peer.returner(channel).consumed());
    };
    _cpu.submit(cpu_cost, CatIntraComm, std::move(consumed));
}

void
ViaComm::fileBufferDone(int from)
{
    if (static_cast<int>(_config.version) < 4)
        return; // slot was released when the receive copy finished
    Peer &peer = _peers.at(from);
    returnCredits(peer, FlowChannel::File,
                  peer.returner(FlowChannel::File).consumed());
}

void
ViaComm::returnCredits(const Peer &peer, FlowChannel channel, int credits)
{
    if (credits > 0)
        send(peer.id, FlowMsg{credits, channel});
}

void
ViaComm::creditArrived(Peer &peer, const FlowMsg &flow)
{
    PRESS_TRACE_INSTANT(
        _tracer, _traceNode, obs::Ev::CommCredit, 0,
        obs::packKindBytes(static_cast<int>(flow.channel),
                           static_cast<std::uint64_t>(flow.credits)));
    PRESS_ASSERT(flow.channel < FlowChannel::NumChannels,
                 "bad flow channel");
    peer.gate(flow.channel).release(flow.credits);
}

void
ViaComm::drainSendCq()
{
    while (auto c = _sendCq->poll()) {
        if (c->desc->status == via::Status::Complete)
            continue;
        // A send racing a connection teardown errors back instead of
        // arriving; the message is lost with the peer.
        PRESS_ASSERT(c->desc->status == via::Status::ErrorDisconnected ||
                         c->desc->status == via::Status::ErrorFlushed,
                     "intra-cluster send failed with status ",
                     static_cast<int>(c->desc->status));
        countDroppedSend();
    }
}

// ---------------------------------------------------------------------
// Fault transitions
// ---------------------------------------------------------------------

void
ViaComm::resetPeerFlow(Peer &peer)
{
    for (CreditGate &gate : peer.gates)
        gate.reset();
    for (CreditReturner &r : peer.returns)
        r.reset();
    peer.seqs.fill(0);
}

void
ViaComm::repostRecvs(Peer &peer)
{
    if (!_recvThreadNeeded)
        return;
    bool ok = peer.vi->postRecvs(peer.recvBufs, RecvBufBytes,
                                 _config.controlWindow + FlowReserve);
    PRESS_ASSERT(ok, "recv queue overflow");
}

void
ViaComm::breakPeer(Peer &p)
{
    if (!p.vi || p.vi->broken())
        return;
    // Tear down this end only: posted receive buffers drain with
    // ErrorFlushed (drainRecvCq drops them), queued sends are
    // discarded, windows restore for the eventual reconnect.
    p.vi->breakLocal();
    resetPeerFlow(p);
}

void
ViaComm::revivePeer(Peer &p)
{
    if (!p.vi || !p.vi->broken())
        return;
    p.vi->revive();
    resetPeerFlow(p);
    repostRecvs(p);
}

void
ViaComm::peerDown(int peer_id)
{
    ClusterComm::peerDown(peer_id);
    breakPeer(_peers.at(peer_id));
}

void
ViaComm::peerUp(int peer_id)
{
    ClusterComm::peerUp(peer_id);
    revivePeer(_peers.at(peer_id));
}

void
ViaComm::selfDown()
{
    ClusterComm::selfDown();
    for (Peer &p : _peers)
        breakPeer(p);
}

void
ViaComm::selfUp()
{
    ClusterComm::selfUp();
    for (Peer &p : _peers)
        revivePeer(p);
}

} // namespace press::core
