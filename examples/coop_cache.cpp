/**
 * @file
 * Beyond WWW serving: a cooperative-caching block service built on the
 * same substrates.
 *
 * The paper argues its findings "directly extend to other types (ftp,
 * email, proxy, or file) and implementations of cluster-based servers,
 * as long as files or file blocks are effectively transferred among
 * the cluster nodes", citing Porcupine, the Federated FS and
 * Cooperative Caching Middleware. This example backs that claim with
 * code: a GET-block service where each node caches blocks locally and
 * fetches misses from whichever peer holds them, over either VIA remote
 * memory writes or TCP — no PRESS involved, just the via/tcpnet/
 * storage/osnode libraries.
 *
 * Usage: coop_cache [blocks] [requests]
 *
 * Exits 1 unless every node's local hits, remote fetches and disk
 * reads add up to the reads it served, and remote memory served more
 * reads than the disks did.
 */

#include <cstdlib>
#include <iostream>
#include <vector>

#include "net/payload.hpp"
#include "osnode/node.hpp"
#include "storage/file_cache.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"
#include "via/via_nic.hpp"

using namespace press;

namespace {

constexpr int Nodes = 4;
constexpr std::uint32_t BlockBytes = 8192;

/** One cooperative-caching node: local LRU + RMW fetch from peers. */
struct CacheNode {
    sim::Simulator &sim;
    int id;
    osnode::Node node;
    storage::FileCache cache;
    via::ViaNic nic;
    std::vector<via::VirtualInterface *> viTo; // per peer
    std::vector<via::Address> ringAt;          // our slot at each peer
    std::vector<via::MemoryRegion> ringFor;    // peers' slots here
    via::MemoryRegion staging;
    std::function<void(int, std::uint32_t)> onBlock; // peer, block
    std::uint64_t localHits = 0, remoteFetches = 0, diskReads = 0;

    CacheNode(sim::Simulator &s, net::Fabric &fabric, int id_)
        : sim(s),
          id(id_),
          node(s, id_),
          cache(8 * util::MB),
          nic(s, fabric, id_),
          viTo(Nodes, nullptr),
          ringAt(Nodes, 0),
          ringFor(Nodes)
    {
        staging = nic.registerMemory(BlockBytes * 4);
    }

    /** Handle a client read of @p block; @p done fires when the block
     *  is in memory here. */
    void
    read(std::uint32_t block, sim::EventFn done,
         std::vector<CacheNode *> &peers)
    {
        if (cache.contains(block)) {
            ++localHits;
            cache.touch(block);
            node.cpu().submit(20 * util::US, 0, std::move(done));
            return;
        }
        // Fetch from any peer that caches the block (the lookup stands
        // in for the caching-information directory a real system
        // maintains; PRESS broadcasts exactly these hints).
        for (int p = 0; p < Nodes; ++p) {
            if (p == id || !peers[p]->cache.contains(block))
                continue;
            ++remoteFetches;
            peers[p]->pushBlock(id, block);
            // done is fired by the RMW arrival handler below.
            pending.push_back({block, std::move(done)});
            return;
        }
        // Nobody caches it: disk. The done callback waits in a FIFO
        // side queue (disk completions are FIFO) so the completion
        // closure stays small enough for EventFn's inline storage.
        ++diskReads;
        diskWaiters.push_back({block, std::move(done)});
        node.disk().read(BlockBytes, [this]() {
            Pending w = std::move(diskWaiters.front());
            diskWaiters.pop_front();
            cache.insert(w.block, BlockBytes);
            node.cpu().submit(20 * util::US, 0, std::move(w.done));
        });
    }

    /** RMW-push @p block to @p dst's ring slot. */
    void
    pushBlock(int dst, std::uint32_t block)
    {
        node.cpu().submit(10 * util::US, 0, [this, dst, block]() {
            viTo[dst]->postSend(via::makeRdmaWrite(
                staging.base, BlockBytes, ringAt[dst],
                net::makePayload<std::uint32_t>(block)));
        });
    }

    struct Pending {
        std::uint32_t block;
        sim::EventFn done;
    };
    std::deque<Pending> pending;
    std::deque<Pending> diskWaiters; ///< FIFO, one per in-flight disk read

    /** A block landed in our ring (written by a peer's NIC). */
    void
    blockArrived(std::uint32_t block)
    {
        node.cpu().submit(5 * util::US, 0, [this, block]() {
            cache.insert(block, BlockBytes); // keep a local copy
            for (auto it = pending.begin(); it != pending.end(); ++it) {
                if (it->block == block) {
                    auto done = std::move(it->done);
                    pending.erase(it);
                    if (done)
                        done();
                    return;
                }
            }
        });
    }
};

} // namespace

int
main(int argc, char **argv)
{
    std::uint32_t blocks =
        argc > 1 ? static_cast<std::uint32_t>(util::cliParseInt(
                       argv[1], "blocks", 1, 1 << 24))
                 : 3200; // ~26 MB working set
    int requests = argc > 2
                       ? static_cast<int>(util::cliParseInt(
                             argv[2], "requests", 1, 1 << 30))
                       : 100000;

    sim::Simulator sim;
    net::Fabric fabric(sim, net::FabricConfig::clan(), Nodes);
    std::vector<CacheNode *> nodes;
    for (int i = 0; i < Nodes; ++i)
        nodes.push_back(new CacheNode(sim, fabric, i));

    // Wire the mesh: VIs + one ring slot per (receiver, sender).
    for (int i = 0; i < Nodes; ++i) {
        for (int j = i + 1; j < Nodes; ++j) {
            auto *vi = nodes[i]->nic.createVi(
                via::Reliability::ReliableDelivery);
            auto *vj = nodes[j]->nic.createVi(
                via::Reliability::ReliableDelivery);
            via::ViaNic::connect(*vi, *vj);
            nodes[i]->viTo[j] = vi;
            nodes[j]->viTo[i] = vj;
        }
    }
    for (int recv = 0; recv < Nodes; ++recv) {
        for (int send = 0; send < Nodes; ++send) {
            if (recv == send)
                continue;
            CacheNode *r = nodes[recv];
            r->ringFor[send] = r->nic.registerMemory(
                BlockBytes,
                [r](std::uint64_t, std::uint64_t,
                    const via::Payload &pl, std::uint32_t) {
                    r->blockArrived(*net::payloadAs<std::uint32_t>(pl));
                });
            nodes[send]->ringAt[recv] = r->ringFor[send].base;
        }
    }

    // Zipf-skewed block reads from each node; closed loop, 16 readers
    // per node.
    util::Rng rng(99);
    util::ZipfSampler zipf(blocks, 0.8);
    int remaining = requests;
    std::vector<std::uint64_t> served(Nodes, 0);
    std::function<void(int)> next = [&](int n) {
        if (remaining-- <= 0)
            return;
        auto block = static_cast<std::uint32_t>(zipf.sample(rng));
        nodes[n]->read(block, [&, n]() {
            ++served[n];
            next(n);
        }, nodes);
    };
    for (int n = 0; n < Nodes; ++n)
        for (int c = 0; c < 16; ++c)
            next(n);
    sim.run();

    util::TextTable t;
    t.header({"node", "local hits", "remote fetches", "disk reads"});
    std::uint64_t hits = 0, remote = 0, disk = 0;
    bool ok = true;
    for (auto *n : nodes) {
        t.row({std::to_string(n->id), util::fmtInt(n->localHits),
               util::fmtInt(n->remoteFetches),
               util::fmtInt(n->diskReads)});
        hits += n->localHits;
        remote += n->remoteFetches;
        disk += n->diskReads;
        if (n->localHits + n->remoteFetches + n->diskReads !=
            served[n->id]) {
            std::cerr << "node " << n->id << " served " << served[n->id]
                      << " reads but accounts for "
                      << n->localHits + n->remoteFetches + n->diskReads
                      << "\n";
            ok = false;
        }
    }
    std::cout << "cooperative block cache over VIA RMW: " << requests
              << " reads, " << sim::nsToSeconds(sim.now())
              << " s simulated\n\n";
    std::cout << t.render();
    double total = static_cast<double>(hits + remote + disk);
    std::cout << "\nlocal " << util::fmtPct(hits / total) << ", remote "
              << util::fmtPct(remote / total) << ", disk "
              << util::fmtPct(disk / total)
              << " — remote memory keeps the disks idle, the paper's "
                 "core premise.\n";
    if (remote <= disk) {
        std::cerr << "remote fetches (" << remote
                  << ") do not outnumber disk reads (" << disk << ")\n";
        ok = false;
    }
    for (auto *n : nodes)
        delete n;
    return ok ? 0 : 1;
}
