/**
 * @file
 * Every news carrier behind one seam: load, caching and membership news
 * leave a node through DisseminationEngine::announce() and enter it
 * through receive(), which hands each fresh item to the server's
 * learned() callback. The server never chooses a carrier.
 *
 * Each news kind travels by one Carrier, fixed at construction from
 * the configured Dissemination::Kind (see the table in
 * docs/simulation.md):
 *
 *  - **PiggyBack** (load only): the load rides on every outgoing
 *    message through the comm layer's load provider.
 *
 *  - **Flood**: the origin unicasts to every other node and nobody
 *    relays — the paper's threshold broadcast (from 0, once the load
 *    moved `threshold`), its caching broadcast and the first-hand
 *    membership flood.
 *
 *  - **Gossip**: broadcast-worthy updates become *rumors*. Each round
 *    (every Dissemination::interval, scheduled lazily only while work
 *    is pending) a node pushes every due rumor — own load first, then
 *    queued relays — to a fanout-k sample of peers, packed into at
 *    most one Load plus one Caching *digest* message per peer
 *    (LoadDigestMsg/CachingDigestMsg). A rumor is relayed by each
 *    fresh receiver for `repeats` rounds while its hop budget
 *    (ceil(log_k N) + slack) lasts, so one update reaches the cluster
 *    in O(log_k N) rounds with O(N * k * repeats) rumor copies — but
 *    the wire carries at most 2k messages per node per interval no
 *    matter how fast loads move. That per-message O(1) is the
 *    coalescing that beats L1's per-change broadcasts: load rumors
 *    also collapse per origin (latest value wins), so a hot node's
 *    load flapping costs one digest entry per round, not a broadcast
 *    per change. Membership news is the exception: each receiver
 *    pushes it on at once to a fresh fanout-k sample (no rounds, no
 *    digests), bounded by the same hop budget.
 *
 *  - **Tree**: a static k-ary multicast tree per source, derived only
 *    from node ids (node j sits at position (j - root) mod N of a
 *    heap-ordered k-ary tree rooted at the origin). A wave costs
 *    exactly N-1 messages over ceil depth O(log_k N) hops, and the
 *    origin rate-limits load waves to one per interval.
 *
 * Determinism contract: peer samples derive from (seed, round, self)
 * through a splitmix64 hash chain — no global RNG, no state shared
 * across nodes — so runs are bit-identical for any thread count and
 * the tick-race hunter's cross-domain permutations cannot move
 * results. All engine state is touched only from its owner node's
 * scheduling domain.
 */

#ifndef PRESS_CORE_DISSEMINATION_HPP
#define PRESS_CORE_DISSEMINATION_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/comm.hpp"
#include "core/config.hpp"
#include "core/wire.hpp"
#include "fault/membership.hpp"
#include "sim/simulator.hpp"
#include "storage/file_set.hpp"
#include "util/logging.hpp"

namespace press::core {

/** One item of load, caching or membership news, as the server
 *  announces it and learns it. */
struct News {
    enum class Kind : std::uint8_t { Load, Caching, Membership };
    Kind kind = Kind::Load;
    bool cached = false;    ///< caching: now cached (else evicted)
    std::uint8_t state = 0; ///< membership: fault::NodeState
    int origin = -1;       ///< node described (membership: observer)
    std::uint32_t seq = 0; ///< rumor seq; 0 = first hand, never relayed
    int hops = 0; ///< gossip: relays left; tree, membership: travelled
    int load = 0;                                ///< load: the value
    storage::FileId file = storage::InvalidFile; ///< caching: the file
    int subject = -1;        ///< membership: the node that changed
    std::uint32_t epoch = 0; ///< membership: fault epoch of the change

    static News ofLoad(int origin, int load)
    {
        return {Kind::Load, false, 0, origin, 0, 0, load};
    }
    static News ofCaching(int origin, storage::FileId file, bool cached)
    {
        return {Kind::Caching, cached, 0, origin, 0, 0, 0, file};
    }
    static News ofMembership(int subject, fault::NodeState state,
                             std::uint32_t epoch, int origin, int hops)
    {
        return {Kind::Membership, false, static_cast<std::uint8_t>(state),
                origin, 0, hops, 0, storage::InvalidFile, subject, epoch};
    }
};

/** Counters the carriers keep (part of ServerStats). */
struct DisseminationStats {
    std::uint64_t gossipRounds = 0;     ///< gossip rounds executed
    std::uint64_t gossipRumorSends = 0; ///< (rumor, peer) pushes
    std::uint64_t loadWaves = 0;        ///< tree load waves originated
    std::uint64_t cachingWaves = 0;     ///< tree caching waves originated
    std::uint64_t membershipSends = 0;  ///< MembershipMsg rumors sent
};

/** One node's news carriers (see file comment). */
class DisseminationEngine
{
  public:
    /** @p load reads the node's current load (timers, piggy-back);
     *  @p stats are the server's counters. */
    DisseminationEngine(sim::Simulator &sim, const PressConfig &config,
                        int self, ClusterComm &comm,
                        DisseminationStats &stats, LoadProvider load);

    DisseminationEngine(const DisseminationEngine &) = delete;
    DisseminationEngine &operator=(const DisseminationEngine &) = delete;

    // ---------------------------------------------------- static helpers

    /**
     * The fanout-k peer sample of @p self for @p round: k distinct
     * nodes != self, a pure function of (seed, round, self). Appends
     * to @p out (cleared first). Fewer than k peers when the cluster
     * is smaller than k+1.
     */
    static void samplePeers(std::uint64_t seed, std::uint64_t round,
                            int self, int nodes, int fanout,
                            std::vector<int> &out);

    /**
     * Children of @p self in the k-ary multicast tree rooted at
     * @p root: position p = (self - root + nodes) % nodes has children
     * at heap positions k*p+1 .. k*p+k. Appends to @p out (cleared
     * first).
     */
    static void treeChildren(int self, int root, int fanout, int nodes,
                             std::vector<int> &out);

    /** Maximum hop count of a tree wave (depth of position nodes-1). */
    static int treeDepth(int nodes, int fanout);

    /** Gossip hop budget: ceil(log_fanout nodes) + slack. */
    static int gossipTtl(int nodes, int fanout);

    /** Whether a node under @p kind ever sends Body alternative
     *  @p body: LoadMsg only under Broadcast and Tree, digests only
     *  under Gossip, the rest always (the VIA receive path's input). */
    static bool sendsBody(Dissemination::Kind kind, std::size_t body);

    // --------------------------------------------------------- the seam

    /** True when the server's load changes are news to anyone, i.e.
     *  some carrier reads the load (the per-request hot-path test). */
    bool
    publishesLoad() const
    {
        return carrierOf(News::Kind::Load) != Carrier::Off;
    }

    /** False under Kind::None: no node has load information, so the
     *  distribution policy must not pick by load. */
    bool loadKnown() const { return _d.kind != Dissemination::Kind::None; }

    /** The view membership pushes consult to skip peers believed
     *  down (set when the fault machinery is switched on). */
    void setMembershipView(const fault::MembershipView *view) { _view = view; }

    /**
     * This node's news: a batch of one kind, each item first hand.
     * A caching batch is one cache insertion and the evictions it
     * caused, in that order; the flood carrier sends the whole batch
     * to one peer before the next.
     */
    void announce(std::span<const News> batch);
    void announce(const News &news) { announce({&news, 1}); }

    /** Put one news item on the wire to @p peer alone: a rumor when
     *  news.seq > 0, else a first-hand report (shard-owner updates and
     *  rejoin replays use this directly; no carrier involved). */
    void tell(int peer, const News &news);

    /**
     * Offer an arrived message to the carriers. Each fresh news item
     * of a Membership, Load or Caching message goes to
     * @p learned(const News &), then to the carrier's relay unless
     * learned() returned false (a membership change the view already
     * knew; load and caching rumors are deduplicated here). Other
     * messages only have their piggy-backed load learned.
     *
     * @return true when the message was news (fully handled here).
     */
    template <typename LearnFn>
    bool
    receive(const Incoming &in, LearnFn &&learned)
    {
        auto arrive = [&](const News &n) {
            if (admit(n) && learned(n))
                relay(n);
        };
        if (in.kind == MsgKind::Membership) {
            unpack<MembershipMsg, MembershipMsg>(in, arrive);
            return true;
        }
        if (in.piggyLoad >= 0 && in.from != _self)
            learned(News::ofLoad(in.from, in.piggyLoad));
        if (in.kind == MsgKind::Load)
            unpack<LoadMsg, LoadDigestMsg>(in, arrive);
        else if (in.kind == MsgKind::Caching)
            unpack<CachingMsg, CachingDigestMsg>(in, arrive);
        else
            return false;
        return true;
    }

    /**
     * This node crashed or left: forget every sequence number, dedup
     * window and queued rumor (a restarted node starts a fresh rumor
     * incarnation, matching its cold cache). Reset in place: armed
     * timers fire into the down check; the wave rate limit carries
     * over.
     */
    void crash();

    /** This node is back up after crash(). */
    void restart() { _down = false; }

  private:
    /** How one kind of news travels (fixed per kind at construction). */
    enum class Carrier : std::uint8_t { Off, PiggyBack, Flood, Gossip, Tree };

    Carrier carrierOf(News::Kind kind) const
    {
        return _carrierOf[static_cast<std::size_t>(kind)];
    }

    struct Slot {
        News rumor;
        int sendsLeft = 0;
    };

    /** Sequence dedup window: max seen seq plus a bitmap of the 64
     *  sequences below it. */
    struct SeqWindow {
        std::uint32_t maxSeq = 0;
        std::uint64_t recent = 0; ///< bit i = (maxSeq - 1 - i) seen
        bool accept(std::uint32_t seq);
    };

    /** One gossip round's outgoing digests for one sampled peer. */
    struct PeerDigest {
        LoadDigestMsg load;
        CachingDigestMsg caching;
    };

    // ------------------------------------------------------------ wire
    /** News in a message from @p from (wire origin -1: the sender). */
    static News fromWire(int from, const LoadMsg &m);
    static News fromWire(int from, const CachingMsg &m);
    static News fromWire(int from, const MembershipMsg &m);

    /** Hand each item of @p in (a Msg, or a Digest of them; Msg twice
     *  when there is no digest) to @p arrive. */
    template <typename Msg, typename Digest, typename ArriveFn>
    static void
    unpack(const Incoming &in, ArriveFn &arrive)
    {
        if constexpr (!std::is_same_v<Msg, Digest>) {
            if (const auto *digest = bodyAs<Digest>(in)) {
                for (const Msg &m : digest->rumors)
                    arrive(fromWire(in.from, m));
                return;
            }
        }
        const auto *msg = bodyAs<Msg>(in);
        PRESS_ASSERT(msg, msgKindName(in.kind), " message without body");
        arrive(fromWire(in.from, *msg));
    }

    // ---------------------------------------------------- origin side
    /** Every other node gets the whole batch, one peer after the next. */
    void flood(std::span<const News> batch);
    /** Push membership news on (first hand or on receipt alike). */
    void spreadMembership(const News &n);
    /** True when @p current moved `threshold` from the last load
     *  rumor (or none went out yet). */
    bool loadDirty(int current) const;
    /** @p n as this node's next rumor of its kind, with @p hops. */
    News stamp(News n, int hops);

    // --------------------------------------------------- receive side
    /**
     * Dedup filter. Load rumors pass only with a strictly newer seq
     * per origin (latest value wins: an older report is stale, not
     * missing); caching rumors with any seq not yet seen in a 64-wide
     * window per origin (every insert/evict applies once). First-hand
     * news and membership (the view's epoch merge filters it) pass.
     */
    bool admit(const News &n);
    void relay(const News &n);

    // --------------------------------------------------------- gossip
    /** Queue a relay copy of an accepted rumor, one hop spent. */
    void enqueueRelay(const News &n);
    /**
     * A duplicate may carry a *larger* hop budget than the copy that
     * arrived first (shorter path): merge it into the queued slot, so
     * the relayed budget is the max over all arrivals, whatever order
     * same-tick copies were delivered in (the tick-race hunter checks).
     */
    void noteDuplicate(const News &n);
    /** Own load dirty, or relays/caching rumors queued. */
    bool hasWork(int current) const;
    /** Arm a round `interval` (plus jitter) from now (idempotent). */
    void scheduleRound();
    /**
     * Push every due rumor — own load first when dirty, then caching
     * rumors oldest first, then relayed loads by ascending origin — to
     * this round's peer sample, packed into per-peer digests. Each
     * push spends one of a rumor's `repeats` rounds.
     */
    void runRound();

    // ----------------------------------------------------------- tree
    /** Start a load wave now if dirty and the rate limit allows, else
     *  arm one for when it does. */
    void maybeEmitLoadWave(int current);
    void emitLoadWave(int current);
    /** Send @p n to this node's children in its origin's tree. */
    void treeRelay(const News &n);

    sim::Simulator &_sim;
    const Dissemination &_d;
    std::uint64_t _seed;
    int _self;
    int _nodes;
    ClusterComm &_comm;
    DisseminationStats &_stats;
    LoadProvider _load;
    const fault::MembershipView *_view = nullptr;
    std::array<Carrier, 3> _carrierOf{};
    bool _down = false; ///< between crash() and restart()

    // Sequence space: cleared by crash().
    int _floodLoad = 0; ///< last load flooded
    std::uint32_t _loadSeq = 0;
    std::uint32_t _cachingSeq = 0;
    int _lastAnnouncedLoad = 0;
    bool _announcedOnce = false;
    std::vector<std::uint32_t> _loadMaxSeen; ///< per-origin, 0 = none
    std::vector<SeqWindow> _cachingSeen;     ///< per-origin
    std::vector<Slot> _loadSlots; ///< one pending load rumor per origin
    std::vector<Slot> _cachingQueue;
    std::uint64_t _round = 0;

    // Timers: survive crash() (an armed one fires into _down).
    bool _roundScheduled = false;
    bool _waveScheduled = false;
    sim::Tick _nextWaveAt = 0; ///< earliest next own load wave

    std::vector<int> _peers; ///< sample/children scratch (no per-send alloc)
    std::vector<PeerDigest> _digests; ///< per sampled peer, reused
};

} // namespace press::core

#endif // PRESS_CORE_DISSEMINATION_HPP
