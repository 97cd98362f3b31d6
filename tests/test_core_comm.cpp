/**
 * @file
 * Tests for the comm backends (TCP and VIA V0-V5) in isolation: message
 * delivery, piggy-backed loads, traffic accounting (Tables 2/4 semantics),
 * and flow control.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "check/via_checker.hpp"
#include "core/via_comm.hpp"
#include "net/fabric.hpp"
#include "osnode/node.hpp"
#include "tcpnet/tcp_stack.hpp"

using namespace press;
using namespace press::core;

namespace {

/** A tiny N-node comm-only rig (no server logic), wired the way the
 *  cluster wires its endpoints. */
struct Rig {
    PressConfig config;
    sim::Simulator sim;
    std::vector<std::unique_ptr<osnode::Node>> nodes;
    CommMesh mesh;
    std::vector<std::unique_ptr<ClusterComm>> &comms = mesh.comms;
    std::vector<std::vector<Incoming>> received;

    Rig(int n, Protocol proto, Version version,
        Dissemination diss = Dissemination::piggyBack())
    {
        config.nodes = n;
        config.protocol = proto;
        config.version = version;
        config.dissemination = diss;
        received.resize(n);
        for (int i = 0; i < n; ++i)
            nodes.push_back(std::make_unique<osnode::Node>(sim, i));
        mesh = buildCommMesh(sim, config, nodes);
        for (int i = 0; i < n; ++i) {
            comms[i]->setHandler([this, i](const Incoming &in) {
                received[i].push_back(in);
            });
        }
    }

    /** Count received messages of a kind at a node. */
    int
    countKind(int node, MsgKind kind) const
    {
        int c = 0;
        for (const auto &in : received[node])
            c += in.kind == kind;
        return c;
    }
};

} // namespace

// ---------------------------------------------------------------------
// TCP backend
// ---------------------------------------------------------------------

TEST(TcpCommTest, ForwardDelivered)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    rig.comms[0]->send(1, ForwardMsg{77, 5});
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
    const auto &in = rig.received[1][0];
    EXPECT_EQ(in.kind, MsgKind::Forward);
    EXPECT_EQ(in.from, 0);
    const auto *fwd = bodyAs<ForwardMsg>(in);
    ASSERT_TRUE(fwd);
    EXPECT_EQ(fwd->file, 77u);
    EXPECT_EQ(fwd->tag, 5u);
}

TEST(TcpCommTest, StatsMatchTableSemantics)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    rig.comms[0]->setLoadProvider([] { return 3; });
    rig.comms[0]->send(1, ForwardMsg{1, 1});
    rig.comms[0]->send(1, CachingMsg{1, true});
    rig.comms[0]->send(1, FileMsg{1, 1, 10000});
    rig.sim.run();
    const auto &tx = rig.comms[0]->txStats();
    EXPECT_EQ(tx.of(MsgKind::Forward).msgs, 1u);
    // Piggy-backed load adds 4 bytes: 53 + 4.
    EXPECT_EQ(tx.of(MsgKind::Forward).bytes, 57u);
    EXPECT_EQ(tx.of(MsgKind::Caching).bytes, 63u);
    EXPECT_EQ(tx.of(MsgKind::File).msgs, 1u);
    EXPECT_EQ(tx.of(MsgKind::File).bytes,
              10000u + rig.config.calibration.sizes.fileHeader + 4u);
    // No flow-control messages over TCP.
    EXPECT_EQ(tx.of(MsgKind::Flow).msgs, 0u);
}

TEST(TcpCommTest, PiggyLoadReachesReceiver)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    int load = 17;
    rig.comms[0]->setLoadProvider([&] { return load; });
    rig.comms[0]->send(1, ForwardMsg{1, 1});
    rig.sim.run();
    ASSERT_EQ(rig.received[1].size(), 1u);
    EXPECT_EQ(rig.received[1][0].piggyLoad, 17);
}

TEST(TcpCommTest, ChargesIntraCommCpu)
{
    Rig rig(2, Protocol::TcpClan, Version::V0);
    rig.comms[0]->send(1, FileMsg{1, 1, 20000});
    rig.sim.run();
    EXPECT_GT(rig.nodes[0]->cpu().busyTime(osnode::CatIntraComm), 0);
    EXPECT_GT(rig.nodes[1]->cpu().busyTime(osnode::CatIntraComm), 0);
    EXPECT_EQ(rig.nodes[0]->cpu().busyTime(osnode::CatService), 0);
}

TEST(TcpCommTest, ClanStackChargesTheClusterCosts)
{
    // TCP/cLAN runs the kernel stack with cLAN's 16 KB MSS, as the
    // cluster builds it: a 20 000 B file costs the sender PRESS's send
    // path plus the cLAN stack's send CPU, nothing else.
    Rig rig(2, Protocol::TcpClan, Version::V0);
    rig.comms[0]->send(1, FileMsg{1, 1, 20000});
    rig.sim.run();
    std::uint64_t wire = rig.comms[0]->txStats().of(MsgKind::File).bytes;
    EXPECT_EQ(wire, 20000u + rig.config.calibration.sizes.fileHeader);
    EXPECT_EQ(rig.nodes[0]->cpu().busyTime(osnode::CatIntraComm),
              rig.config.calibration.tcp.serverSend +
                  tcpnet::TcpCosts::clan().sendCpu(wire));
}

// ---------------------------------------------------------------------
// VIA backend, across versions
// ---------------------------------------------------------------------

class ViaCommVersions : public ::testing::TestWithParam<Version>
{
};

TEST_P(ViaCommVersions, AllKindsDelivered)
{
    Rig rig(3, Protocol::ViaClan, GetParam());
    rig.comms[0]->send(1, ForwardMsg{7, 1});
    rig.comms[0]->send(1, CachingMsg{8, true});
    rig.comms[0]->send(2, CachingMsg{8, true});
    rig.comms[1]->send(0, FileMsg{7, 1, 30000});
    rig.sim.run();
    EXPECT_EQ(rig.countKind(1, MsgKind::Forward), 1);
    EXPECT_EQ(rig.countKind(1, MsgKind::Caching), 1);
    EXPECT_EQ(rig.countKind(2, MsgKind::Caching), 1);
    ASSERT_EQ(rig.countKind(0, MsgKind::File), 1);
    for (const auto &in : rig.received[0]) {
        if (in.kind != MsgKind::File)
            continue;
        const auto *f = bodyAs<FileMsg>(in);
        ASSERT_TRUE(f);
        EXPECT_EQ(f->bytes, 30000u);
        EXPECT_EQ(f->tag, 1u);
        rig.comms[0]->fileBufferDone(in.from);
    }
}

TEST_P(ViaCommVersions, FileMessageCountMatchesTable4)
{
    Version v = GetParam();
    Rig rig(2, Protocol::ViaClan, v);
    rig.comms[0]->send(1, FileMsg{1, 1, 10000});
    rig.sim.run();
    const auto &tx = rig.comms[0]->txStats();
    bool rmw_file = static_cast<int>(v) >= 3;
    // RMW file transfers take two messages (data + metadata) — the
    // effect that doubles File counts in Table 4.
    EXPECT_EQ(tx.of(MsgKind::File).msgs, rmw_file ? 2u : 1u);
    EXPECT_GE(tx.of(MsgKind::File).bytes, 10000u);
    rig.comms[1]->fileBufferDone(0);
}

TEST_P(ViaCommVersions, ManyFilesRespectFlowControlWindow)
{
    Version v = GetParam();
    Rig rig(2, Protocol::ViaClan, v);
    const int files = 50;
    for (int i = 0; i < files; ++i)
        rig.comms[0]->send(1, FileMsg{static_cast<std::uint32_t>(i),
                                          static_cast<std::uint32_t>(i),
                                          5000});
    // Consume buffers as they arrive (V4/V5 hold slots until done).
    rig.comms[1]->setHandler([&](const Incoming &in) {
        rig.received[1].push_back(in);
        if (in.kind == MsgKind::File)
            rig.comms[1]->fileBufferDone(in.from);
    });
    rig.sim.run();
    EXPECT_EQ(rig.countKind(1, MsgKind::File), files);
    // Flow-control credits flowed back (none over TCP, none needed
    // before the window fills).
    const auto &tx1 = rig.comms[1]->txStats();
    EXPECT_GT(tx1.of(MsgKind::Flow).msgs, 0u);
}

TEST_P(ViaCommVersions, DeliveryOrderPreservedPerPair)
{
    Rig rig(2, Protocol::ViaClan, GetParam());
    for (std::uint32_t i = 0; i < 20; ++i)
        rig.comms[0]->send(1, ForwardMsg{i, i});
    rig.sim.run();
    std::uint32_t expect = 0;
    for (const auto &in : rig.received[1]) {
        if (in.kind != MsgKind::Forward)
            continue;
        const auto *f = bodyAs<ForwardMsg>(in);
        ASSERT_TRUE(f);
        EXPECT_EQ(f->file, expect++);
    }
    EXPECT_EQ(expect, 20u);
}

INSTANTIATE_TEST_SUITE_P(
    Versions, ViaCommVersions,
    ::testing::Values(Version::V0, Version::V1, Version::V2,
                      Version::V3, Version::V4, Version::V5),
    [](const ::testing::TestParamInfo<Version> &info) {
        return versionName(info.param);
    });

TEST(ViaCommTest, V5ChargesRegistrationOnInsert)
{
    Rig r0(2, Protocol::ViaClan, Version::V0);
    Rig r5(2, Protocol::ViaClan, Version::V5);
    EXPECT_EQ(r0.comms[0]->cacheInsertCost(100000), 0);
    EXPECT_GT(r5.comms[0]->cacheInsertCost(100000), 0);
    EXPECT_GT(r5.comms[0]->cacheEvictCost(100000), 0);
    EXPECT_LT(r5.comms[0]->cacheEvictCost(100000),
              r5.comms[0]->cacheInsertCost(100000) + 1);
}

TEST(ViaCommTest, PollSweepGrowsWithClusterSize)
{
    Rig small(2, Protocol::ViaClan, Version::V3);
    Rig large(8, Protocol::ViaClan, Version::V3);
    EXPECT_GT(large.comms[0]->perRequestOverhead(),
              small.comms[0]->perRequestOverhead());
    Rig v0(8, Protocol::ViaClan, Version::V0);
    EXPECT_EQ(v0.comms[0]->perRequestOverhead(), 0);
}

TEST(ViaCommTest, LoadBroadcastRegularVsRmw)
{
    Rig reg(2, Protocol::ViaClan, Version::V0,
            Dissemination::broadcast(1, false));
    reg.comms[0]->send(1, LoadMsg{9});
    reg.sim.run();
    ASSERT_EQ(reg.countKind(1, MsgKind::Load), 1);
    const auto *lm = bodyAs<LoadMsg>(reg.received[1][0]);
    ASSERT_TRUE(lm);
    EXPECT_EQ(lm->load, 9);

    Rig rmw(2, Protocol::ViaClan, Version::V0,
            Dissemination::broadcast(1, true));
    rmw.comms[0]->send(1, LoadMsg{9});
    rmw.sim.run();
    EXPECT_EQ(rmw.countKind(1, MsgKind::Load), 1);
    // The RMW load write is cheaper on the receiving CPU.
    EXPECT_LT(rmw.nodes[1]->cpu().busyTime(),
              reg.nodes[1]->cpu().busyTime());
}

TEST(ViaCommTest, RmwControlCheaperThanRegularOnReceiver)
{
    Rig v0(2, Protocol::ViaClan, Version::V0);
    Rig v2(2, Protocol::ViaClan, Version::V2);
    v0.comms[0]->send(1, ForwardMsg{1, 1});
    v2.comms[0]->send(1, ForwardMsg{1, 1});
    v0.sim.run();
    v2.sim.run();
    EXPECT_LT(v2.nodes[1]->cpu().busyTime(),
              v0.nodes[1]->cpu().busyTime());
}

TEST(ViaCommTest, ZeroCopySendCheaperOnSender)
{
    Rig v4(2, Protocol::ViaClan, Version::V4);
    Rig v5(2, Protocol::ViaClan, Version::V5);
    v4.comms[0]->send(1, FileMsg{1, 1, 100000});
    v5.comms[0]->send(1, FileMsg{1, 1, 100000});
    v4.sim.run();
    v5.sim.run();
    EXPECT_LT(v5.nodes[0]->cpu().busyTime(),
              v4.nodes[0]->cpu().busyTime());
}

TEST(ViaCommTest, ZeroCopyRecvCheaperOnReceiver)
{
    Rig v3(2, Protocol::ViaClan, Version::V3);
    Rig v4(2, Protocol::ViaClan, Version::V4);
    v3.comms[0]->send(1, FileMsg{1, 1, 100000});
    v4.comms[0]->send(1, FileMsg{1, 1, 100000});
    v3.sim.run();
    v4.sim.run();
    EXPECT_LT(v4.nodes[1]->cpu().busyTime(),
              v3.nodes[1]->cpu().busyTime());
    v4.comms[1]->fileBufferDone(0);
}

// ---------------------------------------------------------------------
// One send path: per-body accounting across backends and VIA paths
// ---------------------------------------------------------------------

TEST(CommSendPath, EveryBodyChargesItsKindBytesAndMessages)
{
    struct Backend {
        const char *name;
        Protocol proto;
        Version version;
    };
    const Backend backends[] = {
        {"TCP", Protocol::TcpClan, Version::V0},
        {"V0", Protocol::ViaClan, Version::V0},
        {"V2", Protocol::ViaClan, Version::V2},
        {"V5", Protocol::ViaClan, Version::V5},
    };
    // Expected Tables-2/4 row of one send: messages, bytes without the
    // piggy-back word, and whether the path charges that word. Sizes:
    // load 16, flow 13 (regular) or 4 (credit word), forward 53,
    // caching 59, file header 32, RMW file metadata 61, rumor header 9.
    struct Tx {
        std::uint64_t msgs;
        std::uint64_t bytes;
        bool piggy;
    };
    const LoadMsg loadRumor{9, 2, 1, 0};
    const CachingMsg cachingRumor{5, true, 2, 1, 0};
    auto same = [](std::uint64_t bytes) {
        return std::array<Tx, 4>{Tx{1, bytes, true}, Tx{1, bytes, true},
                                 Tx{1, bytes, true}, Tx{1, bytes, true}};
    };
    struct Row {
        const char *name;
        Body body;
        Dissemination diss;   ///< a configuration that sends this body
        std::array<Tx, 4> tx; ///< per backend, in the order above
    };
    const Row rows[] = {
        {"load", LoadMsg{9}, Dissemination::broadcast(1, false), same(16)},
        {"load-word", LoadMsg{9}, Dissemination::broadcast(1, true),
         {Tx{1, 16, true}, Tx{1, 16, false}, Tx{1, 16, false},
          Tx{1, 16, false}}},
        {"load-rumor", loadRumor, Dissemination::tree(4), same(16 + 9)},
        {"flow", FlowMsg{0, FlowChannel::Regular},
         Dissemination::piggyBack(),
         {Tx{1, 13, true}, Tx{1, 13, true}, Tx{1, 4, false},
          Tx{1, 4, false}}},
        {"forward", ForwardMsg{7, 1}, Dissemination::piggyBack(), same(53)},
        {"caching", CachingMsg{5, true}, Dissemination::piggyBack(),
         same(59)},
        {"caching-rumor", cachingRumor, Dissemination::tree(4),
         same(59 + 9)},
        {"file", FileMsg{7, 1, 10000}, Dissemination::piggyBack(),
         {Tx{1, 10000 + 32, true}, Tx{1, 10000 + 32, true},
          Tx{1, 10000 + 32, true}, Tx{2, 10000 + 61, true}}},
        {"load-digest", LoadDigestMsg{{loadRumor, loadRumor}},
         Dissemination::gossip(4), same(2 * (16 + 9))},
        // 2 x 68 B overflows a 128 B ring slot: digests always take
        // the regular path, whatever the version.
        {"caching-digest", CachingDigestMsg{{cachingRumor, cachingRumor}},
         Dissemination::gossip(4), same(2 * (59 + 9))},
        {"membership", MembershipMsg{3, 2, 1, 0, 0},
         Dissemination::piggyBack(), same(59 + 9)},
    };

    for (std::size_t b = 0; b < std::size(backends); ++b) {
        for (const Row &row : rows) {
            for (bool piggy : {false, true}) {
                const Backend &be = backends[b];
                SCOPED_TRACE(std::string(be.name) + " " + row.name +
                             (piggy ? " +piggy" : ""));
                Rig rig(2, be.proto, be.version, row.diss);
                if (piggy)
                    rig.comms[0]->setLoadProvider([] { return 3; });
                rig.comms[0]->send(1, row.body);
                rig.sim.run();

                MsgKind kind = kindOf(row.body);
                const Tx &want = row.tx[b];
                const auto &tx = rig.comms[0]->txStats();
                EXPECT_EQ(tx.of(kind).msgs, want.msgs);
                EXPECT_EQ(tx.of(kind).bytes,
                          want.bytes + (piggy && want.piggy ? 4 : 0));
                EXPECT_EQ(tx.total().msgs, want.msgs)
                    << "no other kind may be charged";
                if (kind != MsgKind::Flow) {
                    EXPECT_EQ(rig.countKind(1, kind), 1)
                        << "the body must arrive";
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// VIA registration follows the path table
// ---------------------------------------------------------------------

namespace {

const via::ViaNic &
nicOf(const Rig &rig, int node)
{
    return static_cast<const ViaComm &>(*rig.comms[node]).nic();
}

} // namespace

TEST(ViaRegistration, RegionsPerPeerMatchThePathTable)
{
    // Per peer: staging always; recv buffers while anything sent is
    // regular; flow words once Flow is RMW (V1+); forward + caching
    // rings from V2; file meta + data rings from V3; the load word only
    // for RMW load broadcasts.
    struct Case {
        const char *name;
        Version version;
        Dissemination diss;
        std::size_t perPeer;
    };
    const Case cases[] = {
        {"V0", Version::V0, Dissemination::piggyBack(), 2},
        {"V1", Version::V1, Dissemination::piggyBack(), 3},
        {"V3", Version::V3, Dissemination::piggyBack(), 6},
        {"V5", Version::V5, Dissemination::piggyBack(), 6},
        {"V5-gossip", Version::V5, Dissemination::gossip(4), 7},
        {"V0-load-word", Version::V0, Dissemination::broadcast(1, true), 3},
    };
    const int n = 4;
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        Rig rig(n, Protocol::ViaClan, c.version, c.diss);
        for (int i = 0; i < n; ++i)
            EXPECT_EQ(nicOf(rig, i).memory().regions(),
                      c.perPeer * (n - 1));
    }
}

TEST(ViaRegistration, EveryRmwTargetIsRegistered)
{
    // Drive every body each configuration sends, enough of each to wrap
    // the ring windows, and require that no remote write misses a
    // registered region.
    const LoadMsg loadRumor{9, 2, 1, 0};
    const CachingMsg cachingRumor{5, true, 2, 1, 0};
    const Dissemination disses[] = {
        Dissemination::piggyBack(), Dissemination::broadcast(1, true),
        Dissemination::broadcast(1, false), Dissemination::gossip(4),
        Dissemination::tree(4)};
    for (Version v : {Version::V0, Version::V1, Version::V2, Version::V3,
                      Version::V4, Version::V5}) {
        for (const Dissemination &diss : disses) {
            SCOPED_TRACE(std::string(versionName(v)) + " " + diss.label());
            Rig rig(3, Protocol::ViaClan, v, diss);
            rig.comms[1]->setHandler([&](const Incoming &in) {
                rig.received[1].push_back(in);
                if (in.kind == MsgKind::File)
                    rig.comms[1]->fileBufferDone(in.from);
            });
            std::vector<Body> bodies = {
                ForwardMsg{7, 1}, CachingMsg{5, true},
                MembershipMsg{3, 2, 1, 0, 0}, FileMsg{7, 1, 5000},
                FlowMsg{0, FlowChannel::Regular}};
            using Kind = Dissemination::Kind;
            if (diss.kind == Kind::Broadcast)
                bodies.push_back(LoadMsg{9});
            if (diss.kind == Kind::Tree) {
                bodies.push_back(loadRumor);
                bodies.push_back(cachingRumor);
            }
            if (diss.kind == Kind::Gossip) {
                bodies.push_back(LoadDigestMsg{{loadRumor}});
                bodies.push_back(CachingDigestMsg{{cachingRumor}});
            }
            const int rounds = 3 * rig.config.controlWindow;
            for (int k = 0; k < rounds; ++k)
                for (const Body &b : bodies)
                    rig.comms[0]->send(1, b);
            rig.sim.run();
            for (int i = 0; i < 3; ++i)
                EXPECT_EQ(nicOf(rig, i).stats().rdmaBadAddress, 0u)
                    << "node " << i;
            for (const Body &b : bodies) {
                MsgKind kind = kindOf(b);
                if (kind != MsgKind::Flow) {
                    EXPECT_GE(rig.countKind(1, kind), rounds)
                        << msgKindName(kind);
                }
            }
        }
    }
}

TEST(ViaRegistration, RegularReceivesNameTheirSender)
{
    // Six senders share node 0's receive CQ. Each sends three windows'
    // worth, so every sender also needs its credits back from node 0.
    const int n = 6;
    Rig rig(n, Protocol::ViaClan, Version::V0);
    const int per = 3 * rig.config.controlWindow;
    for (int i = 1; i < n; ++i)
        for (int k = 0; k < per; ++k)
            rig.comms[i]->send(0, ForwardMsg{static_cast<std::uint32_t>(i),
                                             static_cast<std::uint32_t>(k)});
    rig.sim.run();
    std::vector<std::uint32_t> next(n, 0);
    for (const Incoming &in : rig.received[0]) {
        if (in.kind != MsgKind::Forward)
            continue;
        const auto *f = bodyAs<ForwardMsg>(in);
        ASSERT_TRUE(f);
        EXPECT_EQ(in.from, static_cast<int>(f->file));
        EXPECT_EQ(f->tag, next[in.from]++) << "from " << in.from;
    }
    for (int i = 1; i < n; ++i)
        EXPECT_EQ(next[i], static_cast<std::uint32_t>(per)) << "from " << i;
}
