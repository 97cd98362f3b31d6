/**
 * @file
 * End-to-end tests of the VIA data-transfer semantics: two-sided sends,
 * remote memory writes, reliability levels, ordering, and completion
 * timing — the contract PRESS's comm layer builds on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "net/payload.hpp"
#include "via/via_nic.hpp"

using namespace press;
using net::makePayload;
using net::payloadAs;

namespace {

struct Harness {
    sim::Simulator sim;
    net::Fabric fabric{sim, net::FabricConfig::clan(), 2};
    via::ViaNic nicA{sim, fabric, 0};
    via::ViaNic nicB{sim, fabric, 1};

    via::VirtualInterface *
    pair(via::Reliability rel, via::CompletionQueue *send_cq = nullptr,
         via::CompletionQueue *recv_cq = nullptr,
         via::VirtualInterface **other = nullptr)
    {
        auto *va = nicA.createVi(rel, send_cq);
        auto *vb = nicB.createVi(rel, nullptr, recv_cq);
        via::ViaNic::connect(*va, *vb);
        if (other)
            *other = vb;
        return va;
    }
};

} // namespace

TEST(ViaTransfer, SendConsumesRecvAndCarriesPayload)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb->postRecv(via::makeRecv(dst.base, 4096));

    va->postSend(via::makeSend(src.base, 999,
                               makePayload<std::string>("hello"), 42));
    h.sim.run();

    auto got = vb->pollRecv();
    ASSERT_TRUE(got);
    EXPECT_EQ(got->status, via::Status::Complete);
    EXPECT_EQ(got->bytesDone, 999u);
    EXPECT_EQ(got->immediate, 42u);
    ASSERT_TRUE(got->payload);
    EXPECT_EQ(*payloadAs<std::string>(got->payload), "hello");
    EXPECT_EQ(vb->recvPosted(), 0u);

    auto sent = va->pollSend();
    ASSERT_TRUE(sent);
    EXPECT_EQ(sent->status, via::Status::Complete);
}

TEST(ViaTransfer, InOrderDeliveryOnOneVi)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(1 << 20);
    auto dst = h.nicB.registerMemory(1 << 20);
    for (int i = 0; i < 10; ++i)
        vb->postRecv(via::makeRecv(dst.base, 1 << 20));
    // Mix of sizes: big messages take longer on the wire, but a single
    // VI must still deliver strictly in post order.
    for (int i = 0; i < 10; ++i) {
        std::uint64_t len = (i % 2) ? 200000 : 16;
        va->postSend(via::makeSend(src.base, len, makePayload<int>(i)));
    }
    h.sim.run();
    for (int i = 0; i < 10; ++i) {
        auto got = vb->pollRecv();
        ASSERT_TRUE(got) << "message " << i;
        EXPECT_EQ(*payloadAs<int>(got->payload), i);
    }
}

TEST(ViaTransfer, ReliableOverrunBreaksConnection)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    // No receive descriptor posted at B.
    va->postSend(via::makeSend(src.base, 100));
    h.sim.run();
    auto sent = va->pollSend();
    ASSERT_TRUE(sent);
    EXPECT_EQ(sent->status, via::Status::ErrorRecvOverrun);
    EXPECT_TRUE(va->broken());
    EXPECT_TRUE(vb->broken());
    EXPECT_EQ(h.nicB.stats().recvOverruns, 1u);

    // Subsequent sends fail with disconnect.
    va->postSend(via::makeSend(src.base, 100));
    h.sim.run();
    auto again = va->pollSend();
    ASSERT_TRUE(again);
    EXPECT_EQ(again->status, via::Status::ErrorDisconnected);
}

TEST(ViaTransfer, UnreliableOverrunDropsSilently)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va =
        h.pair(via::Reliability::Unreliable, nullptr, nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    va->postSend(via::makeSend(src.base, 100));
    h.sim.run();
    // Sender completed OK at TX time; receiver saw a drop.
    auto sent = va->pollSend();
    ASSERT_TRUE(sent);
    EXPECT_EQ(sent->status, via::Status::Complete);
    EXPECT_FALSE(va->broken());
    EXPECT_EQ(h.nicB.stats().dropsUnreliable, 1u);
    EXPECT_FALSE(vb->pollRecv());
}

TEST(ViaTransfer, TooSmallRecvBufferIsOverrun)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb->postRecv(via::makeRecv(dst.base, 50)); // too small for 100 B
    va->postSend(via::makeSend(src.base, 100));
    h.sim.run();
    auto recv = vb->pollRecv();
    ASSERT_TRUE(recv);
    EXPECT_EQ(recv->status, via::Status::ErrorRecvOverrun);
    auto sent = va->pollSend();
    ASSERT_TRUE(sent);
    EXPECT_EQ(sent->status, via::Status::ErrorRecvOverrun);
}

TEST(ViaTransfer, RdmaWriteLandsInRemoteRegion)
{
    Harness h;
    auto *va = h.pair(via::Reliability::ReliableDelivery);
    auto src = h.nicA.registerMemory(4096);
    std::vector<std::uint64_t> offsets;
    auto dst = h.nicB.registerMemory(
        8192, [&](std::uint64_t off, std::uint64_t, const via::Payload &,
                  std::uint32_t) { offsets.push_back(off); });

    va->postSend(via::makeRdmaWrite(src.base, 64, dst.base + 512));
    va->postSend(via::makeRdmaWrite(src.base, 64, dst.base + 1024));
    h.sim.run();
    EXPECT_EQ(offsets, (std::vector<std::uint64_t>{512, 1024}));
    // One-sided: no receive descriptor involved, sender completed.
    auto s1 = va->pollSend();
    auto s2 = va->pollSend();
    ASSERT_TRUE(s1 && s2);
    EXPECT_EQ(s1->status, via::Status::Complete);
    EXPECT_EQ(s2->status, via::Status::Complete);
    EXPECT_EQ(h.nicA.stats().rdmaWritesPosted, 2u);
}

TEST(ViaTransfer, RdmaToUnregisteredAddressFails)
{
    Harness h;
    auto *va = h.pair(via::Reliability::ReliableDelivery);
    auto src = h.nicA.registerMemory(4096);
    va->postSend(via::makeRdmaWrite(src.base, 64, 0xbad00000));
    h.sim.run();
    auto sent = va->pollSend();
    ASSERT_TRUE(sent);
    EXPECT_EQ(sent->status, via::Status::ErrorNotRegistered);
    EXPECT_EQ(h.nicB.stats().rdmaBadAddress, 1u);
    EXPECT_TRUE(va->broken());
}

TEST(ViaTransfer, UnreliableSendCompletesAtTxTime)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va =
        h.pair(via::Reliability::Unreliable, nullptr, nullptr, &vb);
    auto src = h.nicA.registerMemory(1 << 20);
    auto dst = h.nicB.registerMemory(1 << 20);
    vb->postRecv(via::makeRecv(dst.base, 1 << 20));

    sim::Tick tx_complete = -1, delivered = -1;
    va->postSend(via::makeSend(src.base, 500000));
    // Poll-style: watch for the send completion each tick.
    while (h.sim.step()) {
        if (tx_complete < 0 && va->pollSend())
            tx_complete = h.sim.now();
        if (delivered < 0 && vb->pollRecv())
            delivered = h.sim.now();
    }
    ASSERT_GE(tx_complete, 0);
    ASSERT_GE(delivered, 0);
    EXPECT_LT(tx_complete, delivered);
}

TEST(ViaTransfer, CompletionQueueAggregatesVis)
{
    Harness h;
    via::CompletionQueue recv_cq(h.sim);
    via::VirtualInterface *vb1 = nullptr, *vb2 = nullptr;
    auto *va1 = h.nicA.createVi(via::Reliability::ReliableDelivery);
    vb1 = h.nicB.createVi(via::Reliability::ReliableDelivery, nullptr,
                          &recv_cq);
    via::ViaNic::connect(*va1, *vb1);
    auto *va2 = h.nicA.createVi(via::Reliability::ReliableDelivery);
    vb2 = h.nicB.createVi(via::Reliability::ReliableDelivery, nullptr,
                          &recv_cq);
    via::ViaNic::connect(*va2, *vb2);

    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb1->postRecv(via::makeRecv(dst.base, 4096));
    vb2->postRecv(via::makeRecv(dst.base, 4096));

    va1->postSend(via::makeSend(src.base, 10, makePayload<int>(1)));
    va2->postSend(via::makeSend(src.base, 10, makePayload<int>(2)));
    h.sim.run();

    EXPECT_EQ(recv_cq.pending(), 2u);
    auto c1 = recv_cq.poll();
    auto c2 = recv_cq.poll();
    ASSERT_TRUE(c1 && c2);
    EXPECT_TRUE(c1->isRecv);
    // Each completion identifies its VI.
    EXPECT_TRUE((c1->vi == vb1 && c2->vi == vb2) ||
                (c1->vi == vb2 && c2->vi == vb1));
}

TEST(ViaTransfer, RegistrationCostScalesWithPages)
{
    Harness h;
    auto one_page = h.nicA.registrationCost(100);
    auto three_pages = h.nicA.registrationCost(4096 * 2 + 1);
    EXPECT_EQ(three_pages, 3 * one_page);
}

/** Paper anchor: a 4-byte VIA/cLAN ping costs ~9 us one way (S3.2),
 *  NIC + wire only (host post costs are charged by the server layer). */
TEST(ViaTransfer, PaperAnchorSmallMessageLatency)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb->postRecv(via::makeRecv(dst.base, 4096));

    sim::Tick t0 = h.sim.now();
    sim::Tick arrived = -1;
    va->postSend(via::makeSend(src.base, 4));
    while (h.sim.step())
        if (arrived < 0 && vb->pollRecv())
            arrived = h.sim.now();
    ASSERT_GE(arrived, 0);
    double us = static_cast<double>(arrived - t0) / 1000.0;
    EXPECT_GT(us, 4.0);
    EXPECT_LT(us, 10.0); // paper: 9 us including host costs
}

TEST(ViaTransfer, DisconnectFlushesAndBreaks)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    vb->postRecv(via::makeRecv(dst.base, 4096));
    vb->postRecv(via::makeRecv(dst.base, 4096));

    via::ViaNic::disconnect(*va);
    EXPECT_TRUE(va->broken());
    EXPECT_TRUE(vb->broken());
    // Both posted receives come back flushed.
    auto r1 = vb->pollRecv();
    auto r2 = vb->pollRecv();
    ASSERT_TRUE(r1 && r2);
    EXPECT_EQ(r1->status, via::Status::ErrorFlushed);
    EXPECT_EQ(r2->status, via::Status::ErrorFlushed);
    // Posting after disconnect fails immediately.
    va->postSend(via::makeSend(src.base, 10));
    auto s = va->pollSend();
    ASSERT_TRUE(s);
    EXPECT_EQ(s->status, via::Status::ErrorDisconnected);
}

TEST(ViaTransfer, InFlightTrafficDiscardedOnDisconnect)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(1 << 20);
    auto dst = h.nicB.registerMemory(1 << 20);
    vb->postRecv(via::makeRecv(dst.base, 1 << 20));
    // Launch a large transfer, then disconnect while it is in flight.
    va->postSend(via::makeSend(src.base, 500000));
    h.sim.step(); // let the NIC start
    via::ViaNic::disconnect(*vb);
    h.sim.run();
    auto sent = va->pollSend();
    ASSERT_TRUE(sent);
    EXPECT_EQ(sent->status, via::Status::ErrorDisconnected);
    // The flushed receive descriptor, not a data arrival.
    auto recv = vb->pollRecv();
    ASSERT_TRUE(recv);
    EXPECT_EQ(recv->status, via::Status::ErrorFlushed);
    EXPECT_FALSE(vb->pollRecv());
}

TEST(ViaTransfer, DescriptorQueuesStayFifoAcrossGrowth)
{
    // 20 descriptors overflow the queues' first buffers (1 entry for
    // posted receives, 8 for done queues); two rounds make the second
    // one wrap around the grown buffers.
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(1 << 16);
    auto dst = h.nicB.registerMemory(1 << 16);
    constexpr int N = 20;
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < N; ++i)
            vb->postRecv(via::makeRecv(dst.base + i * 64, 64));
        EXPECT_EQ(vb->recvPosted(), static_cast<std::size_t>(N));
        for (int i = 0; i < N; ++i)
            va->postSend(via::makeSend(src.base + i * 64, 16,
                                       makePayload<int>(i)));
        h.sim.run();
        for (int i = 0; i < N; ++i) {
            auto got = vb->pollRecv();
            ASSERT_TRUE(got) << "round " << round << " recv " << i;
            EXPECT_EQ(got->localAddr, dst.base + i * 64);
            EXPECT_EQ(*payloadAs<int>(got->payload), i);
        }
        EXPECT_FALSE(vb->pollRecv());
        for (int i = 0; i < N; ++i) {
            auto sent = va->pollSend();
            ASSERT_TRUE(sent) << "round " << round << " send " << i;
            EXPECT_EQ(sent->localAddr, src.base + i * 64);
            EXPECT_EQ(sent->status, via::Status::Complete);
        }
        EXPECT_FALSE(va->pollSend());
    }
}

// ---------------------------------------------------------------------
// Counted receive posts (postRecvs): n buffers of one shape as one
// queue entry, each consumed and completed on its own
// ---------------------------------------------------------------------

TEST(ViaTransfer, CountedAndExplicitPostsConsumeFifoAndSumCounts)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4 * 4096);
    via::Address counted = dst.base + 4096;
    via::Address other = dst.base + 3 * 4096;

    auto first = via::makeRecv(dst.base, 4096);
    auto middle = via::makeRecv(dst.base + 2 * 4096, 4096);
    ASSERT_TRUE(vb->postRecv(first));
    ASSERT_TRUE(vb->postRecvs(counted, 4096, 2));
    ASSERT_TRUE(vb->postRecvs(counted, 4096, 1)); // merges with the last
    ASSERT_TRUE(vb->postRecvs(other, 2048, 1));   // new shape, new entry
    ASSERT_TRUE(vb->postRecv(middle));
    ASSERT_TRUE(vb->postRecvs(counted, 4096, 1));
    EXPECT_EQ(vb->recvPosted(), 7u);

    constexpr int N = 7;
    for (int i = 0; i < N; ++i) {
        va->postSend(via::makeSend(src.base, 100, makePayload<int>(i)));
        if (i == 1) {
            h.sim.run(); // consumes `first` and one counted buffer
            EXPECT_EQ(vb->recvPosted(), 5u);
        }
    }
    h.sim.run();

    std::vector<via::DescriptorPtr> got;
    while (auto d = vb->pollRecv())
        got.push_back(std::move(d));
    ASSERT_EQ(got.size(), static_cast<std::size_t>(N));
    for (int i = 0; i < N; ++i) {
        EXPECT_EQ(got[i]->status, via::Status::Complete) << i;
        EXPECT_EQ(got[i]->bytesDone, 100u) << i;
        EXPECT_EQ(*payloadAs<int>(got[i]->payload), i);
    }
    // Explicit descriptors come back as themselves, in post order.
    EXPECT_EQ(got[0], first);
    EXPECT_EQ(got[5], middle);
    // Counted buffers each get their own descriptor of the posted shape.
    for (int i : {1, 2, 3, 6}) {
        EXPECT_EQ(got[i]->localAddr, counted) << i;
        EXPECT_EQ(got[i]->length, 4096u) << i;
    }
    EXPECT_EQ(got[4]->localAddr, other);
    EXPECT_EQ(got[4]->length, 2048u);
    EXPECT_NE(got[1], got[2]);
    EXPECT_EQ(vb->recvPosted(), 0u);
}

TEST(ViaTransfer, ExhaustedCountedPostOverrunsLikeAnEmptyQueue)
{
    // The third send finds no buffer left: the same overrun and broken
    // reliable connection as ReliableOverrunBreaksConnection.
    Harness h;
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      nullptr, &vb);
    auto src = h.nicA.registerMemory(4096);
    auto dst = h.nicB.registerMemory(4096);
    ASSERT_TRUE(vb->postRecvs(dst.base, 4096, 2));
    for (int i = 0; i < 3; ++i)
        va->postSend(via::makeSend(src.base, 100, makePayload<int>(i)));
    h.sim.run();

    for (int i = 0; i < 2; ++i) {
        auto got = vb->pollRecv();
        ASSERT_TRUE(got) << i;
        EXPECT_EQ(got->status, via::Status::Complete);
        EXPECT_EQ(*payloadAs<int>(got->payload), i);
    }
    EXPECT_FALSE(vb->pollRecv()); // no buffer, so no error completion
    for (int i = 0; i < 2; ++i) {
        auto sent = va->pollSend();
        ASSERT_TRUE(sent) << i;
        EXPECT_EQ(sent->status, via::Status::Complete);
    }
    auto overrun = va->pollSend();
    ASSERT_TRUE(overrun);
    EXPECT_EQ(overrun->status, via::Status::ErrorRecvOverrun);
    EXPECT_TRUE(va->broken());
    EXPECT_TRUE(vb->broken());
    EXPECT_EQ(h.nicB.stats().recvOverruns, 1u);
}

TEST(ViaTransfer, CountedPostRefusedPastMaxQueueDepth)
{
    Harness h;
    via::VirtualInterface *vb = nullptr;
    h.pair(via::Reliability::ReliableDelivery, nullptr, nullptr, &vb);
    auto dst = h.nicB.registerMemory(4096);
    constexpr std::size_t Max = via::VirtualInterface::MaxQueueDepth;

    ASSERT_TRUE(vb->postRecvs(dst.base, 64, Max - 1));
    // Two more would pass the bound: refused whole, nothing posted.
    EXPECT_FALSE(vb->postRecvs(dst.base, 64, 2));
    EXPECT_EQ(vb->recvPosted(), Max - 1);
    EXPECT_TRUE(vb->postRecvs(dst.base, 64, 1));
    EXPECT_EQ(vb->recvPosted(), Max);
    // The bound is on buffers, whichever way they were posted.
    EXPECT_FALSE(vb->postRecvs(dst.base, 64, 1));
    EXPECT_FALSE(vb->postRecv(via::makeRecv(dst.base, 64)));
    EXPECT_EQ(vb->recvPosted(), Max);
}

TEST(ViaTransfer, DisconnectFlushesEveryCountedBuffer)
{
    Harness h;
    via::CompletionQueue recv_cq(h.sim);
    via::VirtualInterface *vb = nullptr;
    auto *va = h.pair(via::Reliability::ReliableDelivery, nullptr,
                      &recv_cq, &vb);
    auto dst = h.nicB.registerMemory(4096);
    constexpr std::size_t N = 5;
    ASSERT_TRUE(vb->postRecvs(dst.base, 4096, N));

    via::ViaNic::disconnect(*va);
    EXPECT_EQ(vb->recvPosted(), 0u);
    // n separate ErrorFlushed completions, one descriptor each.
    ASSERT_EQ(recv_cq.pending(), N);
    std::vector<via::DescriptorPtr> flushed;
    while (auto c = recv_cq.poll()) {
        EXPECT_TRUE(c->isRecv);
        EXPECT_EQ(c->vi, vb);
        EXPECT_EQ(c->desc->status, via::Status::ErrorFlushed);
        EXPECT_EQ(c->desc->localAddr, dst.base);
        for (const auto &d : flushed)
            EXPECT_NE(d, c->desc);
        flushed.push_back(std::move(c->desc));
    }
    EXPECT_EQ(flushed.size(), N);
}

/**
 * PRESS's RMW ring discipline over payload handles: fixed-size slots,
 * a message's sequence number travels with its payload, and write k
 * lands in slot k % Slots. Because VIA delivers in post order on one VI,
 * a reader that sees seq == expected in the expected slot can trust
 * that slot's payload. Writes are posted in bursts longer than the
 * ring, so a reordered delivery leaves a stale sequence number behind.
 */
TEST(ViaTransfer, SequenceNumberRingProtocol)
{
    constexpr std::uint64_t SlotBytes = 64;
    constexpr std::uint32_t Slots = 4;
    struct SlotWord {
        std::uint32_t seq;
        std::uint32_t fill;
    };
    Harness h;
    auto *va = h.pair(via::Reliability::ReliableDelivery);
    auto src = h.nicA.registerMemory(SlotBytes);
    std::vector<std::uint32_t> slot_seq(Slots, UINT32_MAX);
    std::vector<std::uint32_t> slot_fill(Slots, 0);
    std::uint32_t expected = 0;
    int writes_seen = 0;
    auto ring = h.nicB.registerMemory(
        SlotBytes * Slots,
        [&](std::uint64_t off, std::uint64_t len, const via::Payload &p,
            std::uint32_t imm) {
            const auto *w = payloadAs<SlotWord>(p);
            ASSERT_NE(w, nullptr);
            // Reader side: the next sequence number, in its own slot.
            EXPECT_EQ(w->seq, expected);
            EXPECT_EQ(off, (w->seq % Slots) * SlotBytes);
            EXPECT_EQ(len, SlotBytes);
            EXPECT_EQ(imm, w->seq);
            std::uint64_t slot = off / SlotBytes;
            ASSERT_LT(slot, Slots);
            slot_seq[slot] = w->seq;
            slot_fill[slot] = w->fill;
            ++expected;
            ++writes_seen;
        });

    auto post_slot = [&](std::uint32_t seq) {
        via::Address target = ring.base + (seq % Slots) * SlotBytes;
        va->postSend(via::makeRdmaWrite(
            src.base, SlotBytes, target,
            makePayload(SlotWord{seq, 0xA0 + seq}), seq));
    };

    std::uint32_t seq = 0;
    for (std::uint32_t burst : {1u, 3u, 6u, 10u}) {
        for (std::uint32_t i = 0; i < burst; ++i)
            post_slot(seq++);
        h.sim.run();
        // Every slot holds the newest write aimed at it.
        for (std::uint32_t last = seq - std::min(seq, Slots); last < seq;
             ++last) {
            EXPECT_EQ(slot_seq[last % Slots], last);
            EXPECT_EQ(slot_fill[last % Slots], 0xA0 + last);
        }
    }
    EXPECT_EQ(writes_seen, 20);
    EXPECT_EQ(expected, seq);
}

TEST(ViaTransfer, OverwriteSemanticsOfRmwWords)
{
    // Flow-control words may be overwritten freely: the last write
    // wins, exactly like real memory.
    Harness h;
    auto *va = h.pair(via::Reliability::ReliableDelivery);
    auto src = h.nicA.registerMemory(64);
    std::vector<int> seen;
    auto word = h.nicB.registerMemory(
        64, [&](std::uint64_t off, std::uint64_t, const via::Payload &p,
                std::uint32_t) {
            EXPECT_EQ(off, 8u);
            seen.push_back(*payloadAs<int>(p));
        });
    for (int v : {1, 2, 3})
        va->postSend(via::makeRdmaWrite(src.base, 4, word.base + 8,
                                        makePayload(v)));
    h.sim.run();
    ASSERT_FALSE(seen.empty());
    EXPECT_EQ(seen.back(), 3);
    EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
}
