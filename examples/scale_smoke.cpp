/**
 * @file
 * CI smoke for the scalable dissemination and directory paths
 * (scripts/check.sh stage "scale").
 *
 * Three checks, all at cluster sizes far past the paper's 8 nodes:
 *
 *  1. a 64-node gossip run (VIA/cLAN V0 + sharded directory) — with
 *     PRESS_CHECK set the VIA invariant checker is live for the whole
 *     run, and the rumor traffic must respect the per-round
 *     batch * fanout cap;
 *  2. a 64-node tree run (replicated directory) — every wave is a
 *     spanning tree, so load traffic is bounded by waves * (N-1);
 *  3. the sharded-vs-replicated oracle: with no warm-up reset both
 *     directory organisations must answer every request, the drained
 *     shard owners' maps must exactly mirror the real cache contents,
 *     and the per-node directory must shrink by >= 8x at S=16.
 *
 * Exit status 0 when every check holds, 1 otherwise.
 */

#include <cstring>
#include <iostream>

#include "core/cluster.hpp"
#include "util/cli.hpp"
#include "workload/trace_gen.hpp"

using namespace press;
using namespace press::core;

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    std::cout << (ok ? "  ok: " : "  FAIL: ") << what << "\n";
    if (!ok)
        ++failures;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t requests = 12000;
    int nodes = 64;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--requests"))
            requests = util::cliU64(argc, argv, i);
        else if (!std::strcmp(argv[i], "--nodes"))
            nodes = static_cast<int>(util::cliInt(argc, argv, i, 2, 256));
        else
            util::fatal("unknown option ", argv[i],
                        " (want --requests N | --nodes N)");
    }

    workload::TraceSpec spec = workload::clarknetSpec();
    spec.numRequests = requests * 2; // warm-up wraps, keep it short
    workload::Trace trace = workload::generateTrace(spec);

    // ---- 1: gossip + sharded directory, VIA checker live ----------
    PressConfig gossip;
    gossip.protocol = Protocol::ViaClan;
    gossip.version = Version::V0;
    gossip.nodes = nodes;
    gossip.dissemination = Dissemination::gossip();
    gossip.directoryMode = DirectoryMode::Sharded;
    {
        PressCluster cluster(gossip, trace);
        ClusterResults r = cluster.run(requests);
        std::cout << gossip.label() << " @ " << nodes << " nodes: "
                  << r.throughput << " reqs/s, " << r.gossipRounds
                  << " rounds, " << r.gossipRumorSends
                  << " rumor sends\n";
        // Warm-up runs here (unlike the oracle below), so requests
        // straddling the measurement boundary drop out of the count.
        expect(r.requestsMeasured >= requests * 9 / 10,
              "gossip answers the measured stream");
        expect(r.gossipRounds > 0 && r.gossipRumorSends > 0,
              "gossip rounds ran");
        // A round packs every due rumor into at most one Load plus one
        // Caching digest per sampled peer; nodes straddling the warm-up
        // boundary can add a round's worth each.
        std::uint64_t wire_msgs = r.comm.of(MsgKind::Load).msgs +
                                  r.comm.of(MsgKind::Caching).msgs;
        expect(wire_msgs <=
                  (r.gossipRounds + static_cast<std::uint64_t>(nodes)) *
                      2 *
                      static_cast<std::uint64_t>(
                          gossip.dissemination.fanout),
              "wire msgs within the 2 * fanout digest cap per round");
    }

    // ---- 2: tree + replicated directory ---------------------------
    PressConfig tree = gossip;
    tree.dissemination = Dissemination::tree();
    tree.directoryMode = DirectoryMode::Replicated;
    {
        PressCluster cluster(tree, trace);
        ClusterResults r = cluster.run(requests);
        std::uint64_t load_msgs = r.comm.of(MsgKind::Load).msgs;
        std::cout << tree.label() << " @ " << nodes << " nodes: "
                  << r.throughput << " reqs/s, " << r.loadWaves
                  << " load waves, " << load_msgs << " load msgs\n";
        expect(r.requestsMeasured >= requests * 9 / 10,
              "tree answers the measured stream");
        expect(r.loadWaves > 0, "tree load waves ran");
        // A wave is a spanning tree: N-1 messages. Waves straddling
        // the warm-up reset can shift a few either way.
        expect(load_msgs <= (r.loadWaves + 8) *
                               static_cast<std::uint64_t>(nodes - 1),
              "load traffic bounded by waves * (N-1)");
    }

    // ---- 3: sharded-vs-replicated oracle --------------------------
    PressConfig oracle;
    oracle.protocol = Protocol::TcpFastEthernet;
    oracle.nodes = nodes;
    oracle.warmupFraction = 0.0; // no reset: both runs answer exactly
    oracle.dissemination = Dissemination::piggyBack();
    oracle.dirHotSet = 64;

    oracle.directoryMode = DirectoryMode::Replicated;
    PressCluster repl(oracle, trace);
    ClusterResults rr = repl.run(requests);

    oracle.directoryMode = DirectoryMode::Sharded;
    PressCluster shard(oracle, trace);
    ClusterResults rs = shard.run(requests);

    std::cout << "oracle @ " << nodes << " nodes: repl "
              << rr.requestsMeasured << " reqs / " << rr.dirEntriesMaxPerNode
              << " dir entries, shard " << rs.requestsMeasured
              << " reqs / " << rs.dirEntriesMaxPerNode << " entries\n";
    expect(rr.requestsMeasured == requests &&
              rs.requestsMeasured == requests,
          "both directory modes answer the whole stream");

    // At the drained end every unicast update has landed: the owners'
    // maps and the real cache contents must mirror each other exactly.
    auto files = static_cast<storage::FileId>(trace.files.count());
    std::uint64_t owner_bits = 0, cached_pairs = 0;
    bool mirror = true;
    for (int i = 0; i < nodes; ++i) {
        const auto &dir = shard.server(i).cacheDirectory();
        for (storage::FileId f = 0; f < files; ++f) {
            NodeMask m;
            if (dir.lookup(f, m) == CacheDirectory::Answer::Owner)
                owner_bits += static_cast<std::uint64_t>(m.count());
        }
    }
    for (int i = 0; i < nodes; ++i)
        for (storage::FileId f = 0; f < files; ++f)
            if (shard.server(i).cache().contains(f)) {
                ++cached_pairs;
                NodeMask m;
                const auto &owner =
                    shard.server(shard.server(i).cacheDirectory().ownerOf(f))
                        .cacheDirectory();
                if (owner.lookup(f, m) != CacheDirectory::Answer::Owner ||
                    !m.test(i))
                    mirror = false;
            }
    expect(mirror && owner_bits == cached_pairs,
          "shard owners' maps mirror the caches exactly (" +
              std::to_string(cached_pairs) + " pairs)");
    expect(rs.dirEntriesMaxPerNode * 8 <= rr.dirEntriesMaxPerNode,
          "sharding shrinks the per-node directory >= 8x");

    if (failures) {
        std::cout << "scale_smoke: FAILED (" << failures << ")\n";
        return 1;
    }
    std::cout << "scale_smoke: all checks passed\n";
    return 0;
}
