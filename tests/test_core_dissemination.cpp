/**
 * @file
 * Tests for scalable dissemination (gossip rounds, multicast trees) and
 * the sharded cache directory: convergence bounds, message-count
 * exactness, a sharded-vs-replicated end-state oracle, and byte
 * identity across reruns.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/via_checker.hpp"
#include "core/cluster.hpp"
#include "core/dissemination.hpp"
#include "obs/trace_io.hpp"
#include "util/units.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using core::DisseminationEngine;
using core::News;

namespace {

/** One end of an in-memory fabric: every post reaches the destination
 *  engine one microsecond later. */
class MeshComm : public core::ClusterComm
{
  public:
    MeshComm(sim::Simulator &sim,
             std::vector<std::unique_ptr<MeshComm>> &ends, int self)
        : ClusterComm(self), _sim(sim), _ends(ends)
    {
    }

    /** Deliver @p body now, as if node @p from had sent it. */
    void
    inject(int from, core::Body body)
    {
        core::WireMsg w{core::kindOf(body), from, -1, std::move(body)};
        arrive(net::makePayload<core::WireMsg>(std::move(w)));
    }

    void
    arrive(const net::Payload &payload)
    {
        deliver(core::toIncoming(*net::payloadAs<core::WireMsg>(payload),
                                 payload));
    }

    std::uint64_t posted = 0;

  protected:
    void
    post(int dst, core::WireMsg &&w, std::uint64_t) override
    {
        ++posted;
        MeshComm *to = _ends[static_cast<std::size_t>(dst)].get();
        net::Payload payload = net::makePayload<core::WireMsg>(std::move(w));
        _sim.schedule(util::US, [to, payload]() { to->arrive(payload); });
    }

  private:
    sim::Simulator &_sim;
    std::vector<std::unique_ptr<MeshComm>> &_ends;
};

/** N engines wired through MeshComms, with no servers or cluster
 *  around them: each node's learned news is recorded, membership news
 *  merged into its own view. */
struct EngineMesh {
    struct Learned {
        News news;
        sim::Tick at = 0;
    };

    core::PressConfig config;
    sim::Simulator sim;
    std::vector<std::unique_ptr<MeshComm>> comms;
    std::vector<core::DisseminationStats> stats;
    std::vector<std::unique_ptr<fault::MembershipView>> views;
    std::vector<std::unique_ptr<DisseminationEngine>> engines;
    std::vector<int> loads;
    std::vector<std::vector<Learned>> learned;

    EngineMesh(core::Dissemination dissemination, int nodes,
               std::uint64_t seed = 1)
    {
        config.nodes = nodes;
        config.dissemination = dissemination;
        config.seed = seed;
        auto n = static_cast<std::size_t>(nodes);
        stats.resize(n);
        loads.assign(n, 0);
        learned.resize(n);
        for (int i = 0; i < nodes; ++i) {
            comms.push_back(std::make_unique<MeshComm>(sim, comms, i));
            views.push_back(
                std::make_unique<fault::MembershipView>(nodes, i));
        }
        for (std::size_t i = 0; i < n; ++i) {
            engines.push_back(std::make_unique<DisseminationEngine>(
                sim, config, static_cast<int>(i), *comms[i], stats[i],
                [this, i]() { return loads[i]; }));
            engines[i]->setMembershipView(views[i].get());
            comms[i]->setHandler([this, i](const core::Incoming &in) {
                engines[i]->receive(in, [this, i](const News &news) {
                    learned[i].push_back({news, sim.now()});
                    if (news.kind != News::Kind::Membership)
                        return true;
                    return views[i]->apply(
                        news.subject,
                        static_cast<fault::NodeState>(news.state),
                        news.epoch, sim.now());
                });
            });
        }
    }
    EngineMesh(const EngineMesh &) = delete;
    EngineMesh &operator=(const EngineMesh &) = delete;

    std::uint64_t
    sends() const
    {
        std::uint64_t total = 0;
        for (const auto &c : comms)
            total += c->posted;
        return total;
    }

    void
    forget()
    {
        for (auto &l : learned)
            l.clear();
    }
};

} // namespace

// ---------------------------------------------------------------------
// Engine primitives
// ---------------------------------------------------------------------

TEST(Dissemination, PeerSamplesAreDeterministicAndValid)
{
    std::vector<int> a, b;
    for (std::uint64_t round = 1; round <= 50; ++round) {
        DisseminationEngine::samplePeers(42, round, 3, 64, 4, a);
        DisseminationEngine::samplePeers(42, round, 3, 64, 4, b);
        EXPECT_EQ(a, b) << "sample must be a pure function of its inputs";
        EXPECT_EQ(a.size(), 4u);
        std::set<int> distinct(a.begin(), a.end());
        EXPECT_EQ(distinct.size(), 4u);
        EXPECT_EQ(distinct.count(3), 0u) << "never samples self";
        for (int p : a) {
            EXPECT_GE(p, 0);
            EXPECT_LT(p, 64);
        }
    }
    // Small clusters cap the sample at nodes - 1.
    DisseminationEngine::samplePeers(42, 1, 0, 3, 4, a);
    EXPECT_EQ(a.size(), 2u);
    DisseminationEngine::samplePeers(42, 1, 0, 1, 4, a);
    EXPECT_TRUE(a.empty());
}

TEST(Dissemination, PeerSamplesVaryAcrossRoundsAndNodes)
{
    // Not a randomness test, just a degeneracy guard: the union of a
    // node's samples over a handful of rounds should cover much more
    // than one fanout's worth of peers.
    std::set<int> seen;
    std::vector<int> s;
    for (std::uint64_t round = 1; round <= 16; ++round) {
        DisseminationEngine::samplePeers(7, round, 0, 64, 4, s);
        seen.insert(s.begin(), s.end());
    }
    EXPECT_GT(seen.size(), 20u);
}

TEST(Dissemination, TreeEdgesCoverEveryNodeExactlyOnce)
{
    // A wave rooted at r sends exactly one message per (parent, child)
    // edge; the edge set must be a spanning tree: every non-root node
    // is someone's child exactly once. This is the N-1 message-count
    // exactness the bench's analytic column relies on.
    std::vector<int> children;
    for (int nodes : {2, 5, 16, 64, 256}) {
        for (int fanout : {1, 2, 4, 8}) {
            for (int root : {0, 1, nodes / 2, nodes - 1}) {
                std::vector<int> childCount(nodes, 0);
                int edges = 0;
                for (int self = 0; self < nodes; ++self) {
                    DisseminationEngine::treeChildren(self, root, fanout,
                                                     nodes, children);
                    for (int c : children) {
                        ASSERT_GE(c, 0);
                        ASSERT_LT(c, nodes);
                        ++childCount[c];
                        ++edges;
                    }
                }
                EXPECT_EQ(edges, nodes - 1)
                    << "nodes=" << nodes << " fanout=" << fanout
                    << " root=" << root;
                EXPECT_EQ(childCount[root], 0);
                for (int n = 0; n < nodes; ++n) {
                    if (n == root)
                        continue;
                    EXPECT_EQ(childCount[n], 1) << "node " << n;
                }
            }
        }
    }

    // The same through the tree carrier itself, engines wired without
    // a cluster: one load, one caching and one membership news from a
    // root each reach every other node exactly once, in N-1 sends.
    for (int nodes : {2, 8, 64}) {
        for (int root : {0, nodes - 1}) {
            EngineMesh mesh(core::Dissemination::tree(4), nodes);
            mesh.loads[static_cast<std::size_t>(root)] = 5;
            for (const News &news :
                 {News::ofLoad(root, 5), News::ofCaching(root, 17, true),
                  News::ofMembership(root, fault::NodeState::Left, 1, root,
                                     0)}) {
                mesh.forget();
                std::uint64_t before = mesh.sends();
                mesh.engines[static_cast<std::size_t>(root)]->announce(news);
                mesh.sim.run();
                EXPECT_EQ(mesh.sends() - before,
                          static_cast<std::uint64_t>(nodes - 1))
                    << "nodes=" << nodes << " root=" << root
                    << " kind=" << static_cast<int>(news.kind);
                for (int n = 0; n < nodes; ++n) {
                    const auto &got =
                        mesh.learned[static_cast<std::size_t>(n)];
                    ASSERT_EQ(got.size(), n == root ? 0u : 1u)
                        << "node " << n << " kind "
                        << static_cast<int>(news.kind);
                    if (n == root)
                        continue;
                    EXPECT_EQ(got[0].news.kind, news.kind);
                    EXPECT_EQ(got[0].news.origin, root);
                }
            }
        }
    }
}

TEST(Dissemination, TreeDepthIsLogarithmic)
{
    EXPECT_EQ(DisseminationEngine::treeDepth(1, 4), 0);
    EXPECT_EQ(DisseminationEngine::treeDepth(2, 4), 1);
    EXPECT_EQ(DisseminationEngine::treeDepth(256, 4), 4);
    EXPECT_LE(DisseminationEngine::treeDepth(256, 2), 8);
}

TEST(Dissemination, AcceptFiltersStaleAndDuplicate)
{
    EngineMesh mesh(core::Dissemination::gossip(4), 8);
    auto arrives = [&](core::Body body) {
        std::size_t before = mesh.learned[0].size();
        mesh.comms[0]->inject(/*from=*/1, std::move(body));
        return mesh.learned[0].size() > before;
    };

    auto loadRumor = [](int origin, std::uint32_t seq, int load) {
        return core::LoadMsg{load, origin, seq, /*hops=*/3};
    };
    // Load: latest-value semantics — only strictly newer seqs apply.
    EXPECT_TRUE(arrives(loadRumor(3, 5, 10)));
    EXPECT_FALSE(arrives(loadRumor(3, 5, 10))) << "duplicate";
    EXPECT_FALSE(arrives(loadRumor(3, 4, 7))) << "stale reordering";
    EXPECT_TRUE(arrives(loadRumor(3, 6, 11)));
    EXPECT_FALSE(arrives(loadRumor(0, 99, 1))) << "own origin";

    auto cachingRumor = [](int origin, std::uint32_t seq) {
        return core::CachingMsg{17, true, origin, seq, /*hops=*/3};
    };
    // Caching: event semantics — reordered events all apply once.
    EXPECT_TRUE(arrives(cachingRumor(2, 3)));
    EXPECT_TRUE(arrives(cachingRumor(2, 1))) << "reordered, not stale";
    EXPECT_TRUE(arrives(cachingRumor(2, 2)));
    EXPECT_FALSE(arrives(cachingRumor(2, 3))) << "duplicate";
    EXPECT_FALSE(arrives(cachingRumor(2, 1))) << "duplicate";
    EXPECT_TRUE(arrives(cachingRumor(2, 4)));

    // First-hand reports carry no sequence number and always apply.
    EXPECT_TRUE(arrives(core::LoadMsg{4}));
    EXPECT_TRUE(arrives(core::LoadMsg{4}));
}

// ---------------------------------------------------------------------
// Gossip convergence
// ---------------------------------------------------------------------

TEST(Dissemination, GossipConvergesWithinTtlRounds)
{
    // The hop budget gossipTtl = ceil(log_k N) + slack must suffice for
    // one rumor to infect the whole cluster: node 0 announces its load
    // and every other node learns it within ttl rounds (a round waits
    // at most interval * 5/4, one microsecond hop included below).
    for (int nodes : {16, 64, 256}) {
        for (std::uint64_t seed : {42ull, 7ull, 1234ull}) {
            EngineMesh mesh(core::Dissemination::gossip(4), nodes, seed);
            mesh.loads[0] = 1;
            mesh.engines[0]->announce(News::ofLoad(0, 1));
            mesh.sim.run();

            int ttl = DisseminationEngine::gossipTtl(nodes, 4);
            sim::Tick interval = mesh.config.dissemination.interval;
            sim::Tick bound = ttl * (interval + interval / 4 + util::US);
            int covered = 0;
            for (int n = 1; n < nodes; ++n) {
                for (const auto &l :
                     mesh.learned[static_cast<std::size_t>(n)]) {
                    if (l.news.kind != News::Kind::Load ||
                        l.news.origin != 0)
                        continue;
                    ++covered;
                    EXPECT_LE(l.at, bound)
                        << "nodes=" << nodes << " seed=" << seed;
                    break;
                }
            }
            EXPECT_EQ(covered, nodes - 1)
                << "no convergence: nodes=" << nodes << " seed=" << seed;
        }
    }
}

// ---------------------------------------------------------------------
// Full-cluster checks
// ---------------------------------------------------------------------

namespace {

workload::Trace
smallTrace()
{
    auto spec = workload::clarknetSpec();
    spec.numRequests = 6000;
    return workload::generateTrace(spec);
}

std::string
runFingerprint(core::PressConfig config, const workload::Trace &trace,
               std::uint64_t requests = 3000)
{
    config.trace = true;
    core::PressCluster cluster(config, trace);
    auto r = cluster.run(requests);

    std::ostringstream fp;
    fp.precision(17);
    fp << "throughput " << r.throughput << "\n";
    fp << "measured " << r.requestsMeasured << "\n";
    fp << "forward " << r.forwardFraction << "\n";
    fp << "disk_reads " << r.diskReads << "\n";
    fp << "gossip_rounds " << r.gossipRounds << "\n";
    fp << "rumor_sends " << r.gossipRumorSends << "\n";
    fp << "waves " << r.loadWaves << " " << r.cachingWaves << "\n";
    fp << "dir " << r.dirEntriesMaxPerNode << " " << r.dirEntriesTotal
       << " " << r.dirLookups << " " << r.dirHomeReturns << "\n";
    fp << "events " << cluster.simulator().eventsExecuted() << "\n";
    fp << "now " << cluster.simulator().now() << "\n";
    cluster.dumpStats(fp);
    if (r.trace)
        obs::writeTrace(fp, *r.trace);
    return fp.str();
}

void
expectRerunIdentity(const core::PressConfig &config,
                    const workload::Trace &trace)
{
    std::string base = runFingerprint(config, trace);
    ASSERT_FALSE(base.empty());
    EXPECT_EQ(base, runFingerprint(config, trace));
}

} // namespace

TEST(Dissemination, TreeClusterMessageCountMatchesWaves)
{
    // Every tree wave is exactly N-1 messages. The measurement-window
    // reset can split a handful of waves across the boundary, so allow
    // that much slack while pinning the per-wave linear cost.
    auto trace = smallTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.nodes = 8;
    config.dissemination = core::Dissemination::tree(4);
    core::PressCluster cluster(config, trace);
    auto r = cluster.run(3000);

    auto loadMsgs =
        r.comm.byKind[static_cast<int>(core::MsgKind::Load)].msgs;
    auto cachingMsgs =
        r.comm.byKind[static_cast<int>(core::MsgKind::Caching)].msgs;
    std::uint64_t perWave = static_cast<std::uint64_t>(config.nodes - 1);

    EXPECT_GT(r.loadWaves, 0u);
    EXPECT_GT(r.cachingWaves, 0u);
    std::uint64_t slack = 8 * perWave; // waves straddling the reset
    EXPECT_LE(loadMsgs, r.loadWaves * perWave + slack);
    EXPECT_GE(loadMsgs + slack, r.loadWaves * perWave);
    EXPECT_LE(cachingMsgs, r.cachingWaves * perWave + slack);
    EXPECT_GE(cachingMsgs + slack, r.cachingWaves * perWave);
}

TEST(Dissemination, GossipClusterBoundsRoundTraffic)
{
    auto trace = smallTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.nodes = 8;
    config.dissemination = core::Dissemination::gossip(4);
    core::PressCluster cluster(config, trace);
    auto r = cluster.run(3000);

    EXPECT_GT(r.gossipRounds, 0u);
    EXPECT_GT(r.gossipRumorSends, 0u);
    // Every slot push goes to the full fanout-k sample (8 nodes give
    // every round 4 distinct peers), so rumor-level pushes come in
    // exact multiples of the fanout.
    EXPECT_EQ(r.gossipRumorSends %
                  static_cast<std::uint64_t>(config.dissemination.fanout),
              0u);
    // On the wire a round is at most one Load plus one Caching digest
    // per sampled peer, however many rumors were due (window boundary
    // slack for rounds straddling the measurement epoch).
    auto wireMsgs =
        r.comm.byKind[static_cast<int>(core::MsgKind::Load)].msgs +
        r.comm.byKind[static_cast<int>(core::MsgKind::Caching)].msgs;
    auto digestCap = static_cast<std::uint64_t>(
        2 * config.dissemination.fanout);
    EXPECT_LE(wireMsgs, (r.gossipRounds + 2) * digestCap);
    EXPECT_LT(wireMsgs, r.gossipRumorSends)
        << "digests must beat per-rumor sends";
}

TEST(Dissemination, ShardedMatchesReplicatedServiceAndShrinksDirectory)
{
    // Same trace, same requests: the directory organisation must not
    // change *what* gets served, only where the metadata lives. With no
    // warm-up reset both runs must answer every request, and at the
    // drained end state the owners' maps must mirror the real caches.
    auto trace = smallTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::TcpFastEthernet;
    config.nodes = 8;
    config.warmupFraction = 0.0;
    config.dissemination = core::Dissemination::piggyBack();

    config.directoryMode = core::DirectoryMode::Replicated;
    core::PressCluster repl(config, trace);
    auto rRepl = repl.run(4000);

    config.directoryMode = core::DirectoryMode::Sharded;
    config.dirShards = 16;
    config.dirHotSet = 32;
    core::PressCluster shard(config, trace);
    auto rShard = shard.run(4000);

    EXPECT_EQ(rRepl.requestsMeasured, 4000u);
    EXPECT_EQ(rShard.requestsMeasured, 4000u);

    // Owner maps must exactly mirror cache contents once drained.
    auto files = static_cast<press::storage::FileId>(
        trace.files.count());
    std::uint64_t cachedPairs = 0, ownerBits = 0;
    for (int i = 0; i < config.nodes; ++i) {
        const auto &dir = shard.server(i).cacheDirectory();
        ASSERT_TRUE(dir.sharded());
        ownerBits += [&] {
            std::uint64_t bits = 0;
            for (press::storage::FileId f = 0; f < files; ++f) {
                core::NodeMask m;
                if (dir.lookup(f, m) == core::CacheDirectory::Answer::Owner)
                    bits += static_cast<std::uint64_t>(m.count());
            }
            return bits;
        }();
    }
    for (int i = 0; i < config.nodes; ++i)
        for (press::storage::FileId f = 0; f < files; ++f)
            if (shard.server(i).cache().contains(f)) {
                ++cachedPairs;
                const auto &owner =
                    shard.server(shard.server(i).cacheDirectory().ownerOf(f))
                        .cacheDirectory();
                core::NodeMask m;
                ASSERT_EQ(owner.lookup(f, m),
                          core::CacheDirectory::Answer::Owner);
                EXPECT_TRUE(m.test(i))
                    << "owner lost node " << i << " file " << f;
            }
    EXPECT_EQ(ownerBits, cachedPairs)
        << "owner maps hold stale entries";

    // The memory story: one shard + bounded hot set per node.
    EXPECT_GT(rRepl.dirEntriesMaxPerNode, 0u);
    EXPECT_LE(rShard.dirEntriesMaxPerNode,
              rRepl.dirEntriesMaxPerNode / 4)
        << "sharding should shrink the per-node directory";
}

TEST(Dissemination, GossipByteIdenticalAcrossReruns)
{
    auto trace = smallTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V0;
    config.nodes = 4;
    config.dissemination = core::Dissemination::gossip(2);
    expectRerunIdentity(config, trace);
}

TEST(Dissemination, TreeShardedByteIdenticalAcrossReruns)
{
    auto trace = smallTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::TcpClan;
    config.nodes = 4;
    config.dissemination = core::Dissemination::tree(2);
    config.directoryMode = core::DirectoryMode::Sharded;
    config.dirShards = 8;
    config.dirHotSet = 64;
    expectRerunIdentity(config, trace);
}

TEST(Dissemination, SequentialRunsAreReproducible)
{
    auto trace = smallTrace();
    core::PressConfig config;
    config.protocol = core::Protocol::ViaClan;
    config.version = core::Version::V2;
    config.nodes = 6;
    config.dissemination = core::Dissemination::gossip(3);
    config.directoryMode = core::DirectoryMode::Sharded;
    expectRerunIdentity(config, trace);
}

TEST(Dissemination, ViaRmwVersionsCarryGossipAndTreeTraffic)
{
    // From V2 on, forward/caching messages are ring writes, and from V3
    // on nothing in the paper's own configurations is a regular send.
    // Gossip digests and tree load rumors still are: the digests are
    // variable-size (two caching rumors already overflow a ring slot),
    // and the regular path needs the receive thread armed with
    // pre-posted descriptors. Every request must be answered with the
    // VIA checker aborting on the first violation.
    auto trace = smallTrace();
    struct Cell {
        core::Version version;
        core::Dissemination diss;
    };
    const Cell cells[] = {
        {core::Version::V2, core::Dissemination::gossip(4)},
        {core::Version::V3, core::Dissemination::tree(4)},
        {core::Version::V5, core::Dissemination::gossip(4)},
        {core::Version::V5, core::Dissemination::tree(4)},
    };
    for (const Cell &cell : cells) {
        SCOPED_TRACE(std::string(core::versionName(cell.version)) + " " +
                     cell.diss.label());
        core::PressConfig config;
        config.protocol = core::Protocol::ViaClan;
        config.version = cell.version;
        config.nodes = 4;
        config.dissemination = cell.diss;
        config.directoryMode = core::DirectoryMode::Replicated;
        config.warmupFraction = 0.0;
        config.viaCheck = core::ViaCheck::Abort;
        core::PressCluster cluster(config, trace);
        auto r = cluster.run(200);

        EXPECT_EQ(r.requestsMeasured, 200u);
        EXPECT_EQ(r.requestsLost, 0u);
        ASSERT_NE(cluster.viaChecker(), nullptr);
        EXPECT_TRUE(cluster.viaChecker()->clean());
    }
}
