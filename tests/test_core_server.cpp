/**
 * @file
 * Unit tests of the PRESS distribution policy (Section 2.2), using a
 * recording fake comm layer so each rule can be exercised in isolation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/press_server.hpp"
#include "core/wire.hpp"

using namespace press;
using namespace press::core;
using storage::FileId;

namespace {

/** Records outgoing traffic; can inject incoming messages. */
class FakeComm : public ClusterComm
{
  public:
    struct Sent {
        int dst;
        MsgKind kind;
        WireMsg msg;
    };
    std::vector<Sent> sent;

    /** Inject a message as if it arrived from @p from. */
    template <typename T>
    void
    inject(MsgKind kind, int from, T body, int piggy = -1)
    {
        WireMsg w;
        w.kind = kind;
        w.from = from;
        w.piggyLoad = piggy;
        w.body = std::move(body);
        auto payload = net::makePayload<WireMsg>(w);
        deliver(toIncoming(*net::payloadAs<WireMsg>(payload), payload));
    }

    int
    count(MsgKind kind) const
    {
        int c = 0;
        for (const auto &s : sent)
            c += s.kind == kind;
        return c;
    }

  protected:
    void
    post(int dst, WireMsg &&w, std::uint64_t) override
    {
        sent.push_back(Sent{dst, w.kind, std::move(w)});
    }
};

/** A single server instance on a 4-node cluster's node 0. */
struct ServerRig {
    PressConfig config;
    sim::Simulator sim;
    std::unique_ptr<osnode::Node> node;
    storage::FileSet files;
    FakeComm comm;
    std::unique_ptr<PressServer> server;
    std::vector<std::uint64_t> replies;

    explicit ServerRig(Dissemination diss = Dissemination::piggyBack(),
                       std::vector<std::uint32_t> sizes = {})
    {
        config.nodes = 4;
        config.dissemination = diss;
        config.cacheBytes = 1000000; // 1 MB cache for small scenarios
        if (sizes.empty())
            sizes = {10000, 20000, 30000, 600000, 10000};
        files = storage::FileSet(std::move(sizes));
        node = std::make_unique<osnode::Node>(sim, 0);
        server = std::make_unique<PressServer>(sim, config, 0, *node,
                                               files, comm, 99);
    }

    void
    request(FileId file)
    {
        server->handleClientRequest(
            file, [this](std::uint64_t b) { replies.push_back(b); });
    }
};

} // namespace

TEST(ServerPolicy, FirstAccessServedLocallyAndCached)
{
    ServerRig rig;
    rig.request(0);
    rig.sim.run();
    // Served locally from disk, cached, reply sent.
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 0);
    EXPECT_EQ(rig.server->stats().localDiskReads, 1u);
    EXPECT_EQ(rig.server->stats().cacheInsertions, 1u);
    EXPECT_TRUE(rig.server->cache().contains(0));
    ASSERT_EQ(rig.replies.size(), 1u);
    // Reply = file + HTTP headers.
    EXPECT_EQ(rig.replies[0],
              10000u + rig.config.calibration.sizes.httpReplyHeader);
    // Caching information broadcast to the other 3 nodes.
    EXPECT_EQ(rig.comm.count(MsgKind::Caching), 3);
}

TEST(ServerPolicy, SecondAccessIsCacheHit)
{
    ServerRig rig;
    rig.request(0);
    rig.sim.run();
    rig.request(0);
    rig.sim.run();
    EXPECT_EQ(rig.server->stats().localCacheHits, 1u);
    EXPECT_EQ(rig.server->stats().localDiskReads, 1u);
    EXPECT_EQ(rig.replies.size(), 2u);
}

TEST(ServerPolicy, RemoteCachedFileIsForwarded)
{
    ServerRig rig;
    // Node 2 announces it caches file 1.
    rig.comm.inject(MsgKind::Caching, 2, CachingMsg{1, true});
    rig.request(1);
    rig.sim.run();
    ASSERT_EQ(rig.comm.count(MsgKind::Forward), 1);
    EXPECT_EQ(rig.comm.sent[0].dst, 2);
    EXPECT_EQ(rig.server->stats().forwardedOut, 1u);
    // No reply yet: waiting for the file.
    EXPECT_TRUE(rig.replies.empty());
}

TEST(ServerPolicy, FileArrivalCompletesForwardedRequest)
{
    ServerRig rig;
    rig.comm.inject(MsgKind::Caching, 2, CachingMsg{1, true});
    rig.request(1);
    rig.sim.run();
    ASSERT_EQ(rig.comm.count(MsgKind::Forward), 1);
    const auto *fwd = std::get_if<ForwardMsg>(&rig.comm.sent[0].msg.body);
    ASSERT_TRUE(fwd);
    rig.comm.inject(MsgKind::File, 2, FileMsg{1, fwd->tag, 20000});
    rig.sim.run();
    ASSERT_EQ(rig.replies.size(), 1u);
    EXPECT_EQ(rig.replies[0],
              20000u + rig.config.calibration.sizes.httpReplyHeader);
    // The initial node does NOT cache a file received from a service
    // node (Section 2.2).
    EXPECT_FALSE(rig.server->cache().contains(1));
}

TEST(ServerPolicy, LargeFilesAlwaysLocal)
{
    ServerRig rig;
    // File 3 is 600 KB >= the 512 KB cutoff; even though node 1 caches
    // it, the initial node serves it itself.
    rig.comm.inject(MsgKind::Caching, 1, CachingMsg{3, true});
    rig.request(3);
    rig.sim.run();
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 0);
    EXPECT_EQ(rig.server->stats().largeFileServes, 1u);
    EXPECT_EQ(rig.server->stats().localDiskReads, 1u);
    // Large files bypass the cache (they would evict everything).
    EXPECT_FALSE(rig.server->cache().contains(3));
    EXPECT_EQ(rig.replies.size(), 1u);
}

TEST(ServerPolicy, OverloadedCandidateServedLocallyCreatesReplica)
{
    ServerRig rig;
    // Node 2 caches file 1 but reports load above T=80; this node and
    // the least-loaded node are idle, so PRESS replicates locally.
    rig.comm.inject(MsgKind::Caching, 2, CachingMsg{1, true});
    rig.comm.inject(MsgKind::Load, 2, LoadMsg{100});
    rig.request(1);
    rig.sim.run();
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 0);
    EXPECT_EQ(rig.server->stats().overloadLocalServes, 1u);
    EXPECT_TRUE(rig.server->cache().contains(1));
}

TEST(ServerPolicy, AllOverloadedStillForwards)
{
    ServerRig rig;
    rig.comm.inject(MsgKind::Caching, 2, CachingMsg{1, true});
    for (int n = 1; n < 4; ++n)
        rig.comm.inject(MsgKind::Load, n, LoadMsg{200});
    // Drive this node's own load above T with many open requests; the
    // request for file 1 parses last, while they are all still open.
    for (int i = 0; i < 100; ++i)
        rig.request(4);
    rig.request(1);
    rig.sim.run();
    EXPECT_GE(rig.comm.count(MsgKind::Forward), 1);
}

TEST(ServerPolicy, ForwardedRequestServedAndFileSentBack)
{
    ServerRig rig;
    // A forward arrives for file 0 (not yet cached here): disk read,
    // cache insert, file sent back to the requester.
    rig.comm.inject(MsgKind::Forward, 3, ForwardMsg{0, 42});
    rig.sim.run();
    ASSERT_EQ(rig.comm.count(MsgKind::File), 1);
    const auto &sent = rig.comm.sent.back();
    EXPECT_EQ(sent.dst, 3);
    const auto *fm = std::get_if<FileMsg>(&sent.msg.body);
    ASSERT_TRUE(fm);
    EXPECT_EQ(fm->file, 0u);
    EXPECT_EQ(fm->tag, 42u);
    EXPECT_EQ(fm->bytes, 10000u);
    EXPECT_EQ(rig.server->stats().forwardedIn, 1u);
    EXPECT_EQ(rig.server->stats().serviceDiskReads, 1u);
    EXPECT_TRUE(rig.server->cache().contains(0));
}

TEST(ServerPolicy, PiggyLoadUpdatesDirectory)
{
    ServerRig rig;
    rig.comm.inject(MsgKind::Caching, 1, CachingMsg{0, true}, 33);
    EXPECT_EQ(rig.server->loadDirectory().load(1), 33);
}

TEST(ServerPolicy, BroadcastDisseminationSendsLoad)
{
    ServerRig rig(Dissemination::broadcast(1));
    rig.request(0);
    rig.sim.run();
    // Load changed by >= 1 at least twice (open, close): broadcasts to
    // the 3 other nodes happened.
    EXPECT_GE(rig.comm.count(MsgKind::Load), 3);
}

TEST(ServerPolicy, ThresholdSuppressesBroadcasts)
{
    ServerRig rig16(Dissemination::broadcast(16));
    rig16.request(0);
    rig16.sim.run();
    EXPECT_EQ(rig16.comm.count(MsgKind::Load), 0);
}

TEST(ServerPolicy, NlbForwardsWithoutLoadInfo)
{
    ServerRig rig(Dissemination::none());
    rig.comm.inject(MsgKind::Caching, 2, CachingMsg{1, true});
    // Candidate "overloaded" — NLB ignores load entirely and forwards.
    rig.comm.inject(MsgKind::Load, 2, LoadMsg{1000});
    rig.request(1);
    rig.sim.run();
    EXPECT_EQ(rig.comm.count(MsgKind::Forward), 1);
}

TEST(ServerPolicy, EvictionBroadcastsUncaching)
{
    // Cache sized to hold exactly one of the 10 KB files.
    ServerRig rig(Dissemination::piggyBack(),
                  {10000, 10000, 10000, 10000});
    rig.config.cacheBytes = 15000;
    // Rebuild the server with the small cache.
    rig.server = std::make_unique<PressServer>(
        rig.sim, rig.config, 0, *rig.node, rig.files, rig.comm, 99);
    rig.request(0);
    rig.sim.run();
    rig.comm.sent.clear();
    rig.request(1); // evicts 0
    rig.sim.run();
    EXPECT_EQ(rig.server->stats().cacheEvictions, 1u);
    // Both the insertion of 1 and the eviction of 0 broadcast: 3 nodes
    // each.
    EXPECT_EQ(rig.comm.count(MsgKind::Caching), 6);
    EXPECT_FALSE(rig.server->cache().contains(0));
}

TEST(ServerPolicy, LatencyAccountedPerReply)
{
    ServerRig rig;
    rig.request(0);
    rig.sim.run();
    EXPECT_EQ(rig.server->stats().latency.count(), 1u);
    EXPECT_GT(rig.server->stats().latency.mean(), 0.0);
}

// ---------------------------------------------------------------------
// Sharded directory routes (rules 3/4 via the shard owner)
// ---------------------------------------------------------------------

namespace {

/** ServerRig on a sharded directory, with enough files that node 0
 *  owns some shards and not others. */
struct ShardRig : ServerRig {
    ShardRig()
        : ServerRig(Dissemination::piggyBack(),
                    std::vector<std::uint32_t>(64, 10000))
    {
        config.directoryMode = DirectoryMode::Sharded;
        server = std::make_unique<PressServer>(sim, config, 0, *node,
                                               files, comm, 99);
    }

    /** First file whose shard node 0 owns (@p owned) or does not. */
    FileId
    fileOwned(bool owned) const
    {
        FileId f = 0;
        while (server->cacheDirectory().owns(f) != owned)
            ++f;
        return f;
    }

    /** Initial node 2 asks owner node 0 to route a request. */
    void
    lookup(FileId file, std::uint32_t tag)
    {
        comm.inject(MsgKind::Forward, 2,
                    ForwardMsg{file, tag, 2, ForwardRoute::Lookup});
        sim.run();
    }

    /** Body of the only message sent, if it went to @p dst as a T. */
    template <typename T>
    const T *
    onlySentTo(int dst) const
    {
        if (comm.sent.size() != 1 || comm.sent[0].dst != dst)
            return nullptr;
        return std::get_if<T>(&comm.sent[0].msg.body);
    }
};

} // namespace

TEST(ServerPolicySharded, MissOutsideShardAsksOwner)
{
    ShardRig rig;
    FileId f = rig.fileOwned(false);
    rig.request(f);
    rig.sim.run();
    const auto *fwd = rig.onlySentTo<ForwardMsg>(
        rig.server->cacheDirectory().ownerOf(f));
    ASSERT_TRUE(fwd);
    EXPECT_EQ(fwd->route, ForwardRoute::Lookup);
    EXPECT_EQ(fwd->file, f);
    EXPECT_EQ(fwd->origin, 0);
    EXPECT_EQ(rig.server->stats().dirLookupsOut, 1u);
    EXPECT_TRUE(rig.replies.empty());
}

TEST(ServerPolicySharded, OwnerWithEmptyMaskSendsHome)
{
    ShardRig rig;
    rig.lookup(rig.fileOwned(true), 7);
    const auto *fwd = rig.onlySentTo<ForwardMsg>(2);
    ASSERT_TRUE(fwd);
    EXPECT_EQ(fwd->route, ForwardRoute::Home);
    EXPECT_EQ(fwd->tag, 7u);
    EXPECT_EQ(fwd->origin, 2);
    EXPECT_EQ(rig.server->stats().dirLookupsIn, 1u);
}

TEST(ServerPolicySharded, OwnerRoutesToCandidateOtherThanOrigin)
{
    ShardRig rig;
    FileId f = rig.fileOwned(true);
    // Nodes 1 and 2 cache the file; the initial node 2 is excluded
    // (its rule 2 would have kept the request had it still cached it).
    rig.comm.inject(MsgKind::Caching, 1, CachingMsg{f, true});
    rig.comm.inject(MsgKind::Caching, 2, CachingMsg{f, true});
    rig.lookup(f, 9);
    const auto *fwd = rig.onlySentTo<ForwardMsg>(1);
    ASSERT_TRUE(fwd);
    EXPECT_EQ(fwd->route, ForwardRoute::Serve);
    EXPECT_EQ(fwd->tag, 9u);
    EXPECT_EQ(fwd->origin, 2);
}

TEST(ServerPolicySharded, OwnerSendsHomeWhenOnlyCandidateOverloaded)
{
    ShardRig rig;
    FileId f = rig.fileOwned(true);
    rig.comm.inject(MsgKind::Caching, 1, CachingMsg{f, true});
    rig.comm.inject(MsgKind::Load, 1, LoadMsg{100}); // above T = 80
    rig.lookup(f, 11);
    const auto *fwd = rig.onlySentTo<ForwardMsg>(2);
    ASSERT_TRUE(fwd);
    EXPECT_EQ(fwd->route, ForwardRoute::Home);
    EXPECT_EQ(fwd->tag, 11u);
}

TEST(ServerPolicySharded, OwnerThatIsCandidateSendsFileToOrigin)
{
    ShardRig rig;
    FileId f = rig.fileOwned(true);
    // First touch at the owner: served locally, cached, and recorded
    // in its own authoritative shard.
    rig.request(f);
    rig.sim.run();
    ASSERT_TRUE(rig.server->cache().contains(f));
    rig.comm.sent.clear();

    rig.lookup(f, 13);
    const auto *fm = rig.onlySentTo<FileMsg>(2);
    ASSERT_TRUE(fm);
    EXPECT_EQ(fm->file, f);
    EXPECT_EQ(fm->tag, 13u);
    EXPECT_EQ(rig.server->stats().forwardedIn, 1u);
}
